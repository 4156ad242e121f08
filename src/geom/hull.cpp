#include "geom/hull.hpp"

#include "geom/predicates.hpp"
#include "geom/simd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace lumen::geom {

namespace {

/// One fringe point in the exact sort: coord_key64 of its x (equal keys
/// mean equal doubles) and its index.
struct Key64Record {
  std::uint64_t key;
  std::uint32_t slot;
};

/// Monotone 64-bit image of a double coordinate: unsigned order of the key
/// equals numeric order of the value (sign bit remapped; -0.0 canonicalized
/// to +0.0 by the `+ 0.0` so the two zero encodings map to one key). The
/// image is EXACT — equal keys mean equal doubles — so a stable radix sort
/// by this key is already the exact coordinate order, with no approximate-
/// key tie runs to repair.
inline std::uint64_t coord_key64(double v) noexcept {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(v + 0.0);
  return (u & 0x8000000000000000ull) != 0 ? ~u : (u | 0x8000000000000000ull);
}

/// Below this size the extreme-quad cull costs more than the chain work it
/// saves. Output-neutral: the cull never changes the hull, only its cost.
inline constexpr std::size_t kCullMin = 32;

/// Below this many fringe records a plain comparison sort beats the bucket
/// scatter.
inline constexpr std::size_t kBucketMinRecords = 96;

/// Exact lexicographic (x, y, index) sort of the fringe records, where
/// record.key is coord_key64(x) and the y/index tie-breaks read the points.
/// One monotone value-bucket scatter (bucket = (x - min_x) * scale, so
/// bucket order equals key order and equal keys share a bucket) followed by
/// exact per-bucket comparison sorts of the tiny runs — the same shape as
/// simd::sort_angular_records, but with the double coordinate as the bucket
/// value and the full three-way comparator as the finish. Chaining two
/// 8-pass 64-bit LSD radix sorts here costs 16 histogram+scatter sweeps and
/// loses ~2x to this at realistic sizes; the bucketed form does one.
inline void sort_fringe_records(std::vector<Key64Record>& records,
                                std::vector<Key64Record>& tmp,
                                std::span<const Vec2> points, double min_x,
                                double max_x) {
  const std::size_t m = records.size();
  const auto exact_less = [&points](const Key64Record& a,
                                    const Key64Record& b) {
    if (a.key != b.key) return a.key < b.key;  // Exact x order.
    const Vec2 pa = points[a.slot];
    const Vec2 pb = points[b.slot];
    if (pa.y != pb.y) return pa.y < pb.y;
    return a.slot < b.slot;
  };
  if (m < kBucketMinRecords || !(max_x > min_x)) {
    // Tiny fringe, or every x equal (degenerate quad): compare-sort.
    std::sort(records.begin(), records.end(), exact_less);
    return;
  }
  const std::size_t nb =
      std::min<std::size_t>(std::bit_floor(m), std::size_t{1} << 13);
  const double scale = static_cast<double>(nb) / (max_x - min_x);
  const auto bucket_of = [&](const Key64Record& r) {
    const auto b = static_cast<std::size_t>(
        (points[r.slot].x - min_x) * scale);
    return b < nb ? b : nb - 1;
  };
  std::vector<std::size_t> cursors(nb + 1, 0);
  for (const Key64Record& r : records) ++cursors[bucket_of(r) + 1];
  for (std::size_t b = 1; b <= nb; ++b) cursors[b] += cursors[b - 1];
  tmp.resize(m);
  for (const Key64Record& r : records) tmp[cursors[bucket_of(r)]++] = r;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t end = cursors[b];  // Post-scatter: one past bucket b.
    if (end - begin > 1) {
      std::sort(tmp.begin() + static_cast<std::ptrdiff_t>(begin),
                tmp.begin() + static_cast<std::ptrdiff_t>(end), exact_less);
    }
    begin = end;
  }
  records.swap(tmp);
}

/// Akl–Toussaint interior cull of a non-empty span: inside[j] = 1 iff
/// points[j] is certified strictly inside the quadrilateral of the four
/// coordinate-extreme points (simd::hull_cull_mask), so strictly inside the
/// hull. Returns the quad's west and east indices.
inline std::pair<std::size_t, std::size_t> cull_mask(
    std::span<const Vec2> points, std::uint8_t* inside) {
  // The running extremes stay in registers: reloading points[iw] each step
  // would chain every iteration through a load.
  std::size_t iw = 0, ie = 0, is = 0, in = 0;
  double min_x = points[0].x, max_x = min_x;
  double min_y = points[0].y, max_y = min_y;
  for (std::size_t j = 1; j < points.size(); ++j) {
    const Vec2 p = points[j];
    if (p.x < min_x) {
      min_x = p.x;
      iw = j;
    }
    if (p.x > max_x) {
      max_x = p.x;
      ie = j;
    }
    if (p.y < min_y) {
      min_y = p.y;
      is = j;
    }
    if (p.y > max_y) {
      max_y = p.y;
      in = j;
    }
  }
  // CCW corner order: west, south, east, north.
  const Vec2 quad[4] = {points[iw], points[is], points[ie], points[in]};
  simd::hull_cull_mask(points.data(), points.size(), quad, inside);
  return {iw, ie};
}

/// Lower half-plane around o, the half that holds the angles [pi, 2 pi):
/// below o, or on its horizontal line and not to its right. Comparisons of
/// the coordinates themselves, so exact.
inline bool below(Vec2 p, Vec2 o) noexcept {
  return p.y < o.y || (p.y == o.y && !(p.x > o.x));
}

}  // namespace

std::vector<std::size_t> convex_hull_indices(std::span<const Vec2> points) {
  const std::size_t n = points.size();
  // Exact lexicographic (x, y, index) sort: records carry the monotone
  // 64-bit image of x (so the primary comparison is one integer compare and
  // -0.0/+0.0 collapse), sort_fringe_records buckets by the x value and
  // finishes each tiny bucket with the exact (x, y, index) comparator. The
  // index tie-break makes the order — and hence the surviving duplicate
  // below — deterministic.
  std::vector<Key64Record> records;
  std::vector<Key64Record> tmp;
  records.reserve(n);
  double min_x = 0.0;
  double max_x = 0.0;
  if (n >= kCullMin) {
    // Akl–Toussaint interior cull: a point certifiably STRICTLY inside the
    // quadrilateral of the four coordinate-extreme points is strictly
    // inside the hull, so the monotone chain below could never emit it.
    // Dropping such points first shrinks both the sort and the chain to the
    // candidate fringe while leaving the output bit-identical — the
    // certify-only test (geom/simd.hpp: the batched stage-A filter) keeps
    // every point it cannot decide, and on fully collinear input
    // (degenerate quad) it certifies nothing, so the degenerate branch
    // still sees the complete sorted order.
    std::vector<std::uint8_t> inside(n);
    const auto [west, east] = cull_mask(points, inside.data());
    for (std::uint32_t j = 0; j < n; ++j) {
      if (inside[j] != 0) continue;
      records.push_back(Key64Record{coord_key64(points[j].x), j});
    }
    min_x = points[west].x;
    max_x = points[east].x;
  } else {
    for (std::uint32_t j = 0; j < n; ++j) {
      records.push_back(Key64Record{coord_key64(points[j].x), j});
    }
  }
  sort_fringe_records(records, tmp, points, min_x, max_x);
  std::vector<std::size_t> order;
  order.reserve(records.size());
  for (const Key64Record& r : records) {
    order.push_back(r.slot);
  }
  // Drop exact duplicates (keep the first occurrence in sorted order).
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::size_t i, std::size_t j) {
                            return points[i] == points[j];
                          }),
              order.end());
  const std::size_t m = order.size();
  if (m <= 2) return order;

  // Check for full collinearity: monotone chain would return just the two
  // extremes anyway, but short-circuiting keeps the degenerate contract
  // explicit.
  bool degenerate = true;
  for (std::size_t i = 2; i < m; ++i) {
    if (orient2d(points[order[0]], points[order[1]], points[order[i]]) != 0) {
      degenerate = false;
      break;
    }
  }
  if (degenerate) return {order.front(), order.back()};

  std::vector<std::size_t> hull(2 * m);
  std::size_t k = 0;
  // Lower hull. orient2d_inline keeps the stage-A filter in the loop.
  for (std::size_t idx = 0; idx < m; ++idx) {
    const std::size_t i = order[idx];
    while (k >= 2 && orient2d_inline(points[hull[k - 2]], points[hull[k - 1]],
                                     points[i]) <= 0) {
      --k;
    }
    hull[k++] = i;
  }
  // Upper hull.
  const std::size_t lower_size = k + 1;
  for (std::size_t idx = m - 1; idx-- > 0;) {
    const std::size_t i = order[idx];
    while (k >= lower_size &&
           orient2d_inline(points[hull[k - 2]], points[hull[k - 1]],
                           points[i]) <= 0) {
      --k;
    }
    hull[k++] = i;
  }
  hull.resize(k - 1);  // Last point equals the first.
  return hull;
}

bool sweep_hull_indices(std::span<const Vec2> pts,
                        std::vector<std::size_t>& hull) {
  if (pts.size() < 4) return false;  // Three fringe points at the least.
  const Vec2 o = pts[0];
  const std::span<const Vec2> others = pts.subspan(1);
  const std::size_t n = others.size();
  // The fringe: pts[1..] minus the points certified strictly inside their
  // extreme quad (never hull vertices), compacted branch-free in input
  // order as indices into pts.
  std::vector<std::uint8_t> inside(n);
  cull_mask(others, inside.data());
  std::vector<std::uint32_t> fringe(n);
  std::size_t f = 0;
  for (std::size_t j = 0; j < n; ++j) {
    fringe[f] = static_cast<std::uint32_t>(j + 1);
    f += inside[j] ^ 1u;
  }
  if (f < 3) return false;
  // The certificate. Every cyclically consecutive pair (a, b) turns around
  // o with the same nonzero sign, so each step sweeps an angle strictly
  // between 0 and pi in one rotational direction, and the steps add up to
  // 2 pi times the number of times the fringe winds around o. A step
  // crosses the positive x-ray of o exactly when it leaves the lower half
  // for the upper one (CCW) or the upper for the lower (CW); in a cycle
  // the two kinds of half change are equally many, so counting one kind
  // counts the crossings. Exactly one crossing means the steps sum to
  // 2 pi: the fringe is strictly sorted by angle around o, and with every
  // gap below pi, o is strictly inside its hull.
  Vec2 a = pts[fringe[f - 1]];
  Vec2 da = a - o;
  const int turn =
      orient2d_around(da, pts[fringe[0]] - o, a, pts[fringe[0]], o);
  if (turn == 0) return false;
  bool a_below = below(a, o);
  std::size_t crossings = 0;
  for (std::size_t k = 0; k < f; ++k) {
    const Vec2 b = pts[fringe[k]];
    const Vec2 db = b - o;
    if (orient2d_around(da, db, a, b, o) != turn) return false;
    const bool b_below = below(b, o);
    crossings += static_cast<std::size_t>(a_below && !b_below);
    a = b;
    da = db;
    a_below = b_below;
  }
  if (crossings != 1) return false;
  // Graham's scan around an interior point: start at the lexicographic
  // minimum (always a hull vertex), walk the fringe counter-clockwise and
  // close on the start again. A popped point lies in the closed triangle
  // of o and its stack neighbours, whose sector spans less than pi (hull
  // vertices are never popped, and every point between two of them lies
  // in their sector), so it is no hull vertex; the final stack turns left
  // everywhere and winds once, so it is the strict hull, CCW from the
  // lexicographic minimum — convex_hull_indices' list element for element.
  std::size_t start = 0;
  Vec2 s = pts[fringe[0]];
  for (std::size_t k = 1; k < f; ++k) {
    const Vec2 p = pts[fringe[k]];
    if (p.x < s.x || (p.x == s.x && p.y < s.y)) {
      s = p;
      start = k;
    }
  }
  const std::size_t step = turn > 0 ? 1 : f - 1;  // CCW in either frame.
  hull.resize(f + 1);
  std::size_t t = 0;
  std::size_t pos = start;
  for (std::size_t c = 0; c <= f; ++c) {
    const std::size_t i = fringe[pos];
    while (t >= 2 &&
           orient2d_inline(pts[hull[t - 2]], pts[hull[t - 1]], pts[i]) <= 0) {
      --t;
    }
    hull[t++] = i;
    pos += step;
    if (pos >= f) pos -= f;
  }
  hull.resize(t - 1);  // The start, pushed twice.
  return true;
}

bool points_in_strictly_convex_position(std::span<const Vec2> points) {
  if (points.size() <= 2) return true;
  if (all_collinear(points)) return false;
  const auto hull = convex_hull_indices(points);
  return hull.size() == points.size();
}

bool nearly_collinear(std::span<const Vec2> points, double rel_tol) {
  const std::size_t n = points.size();
  if (n <= 2) return true;
  // Anchor the line on the pair (p0, q) with q farthest from p0 — a
  // 2-approximation of the diameter, good enough for a tolerance test.
  const std::size_t far_idx = simd::farthest_index(points.data(), n, points[0]);
  if (far_idx == 0) return true;  // All coincident.
  const double far_sq = distance_sq(points[0], points[far_idx]);
  const Vec2 a = points[0];
  const Vec2 b = points[far_idx];
  // |orient| = 2 * area = |ab| * dist(c, line ab); require dist <= tol*|ab|.
  const double threshold = rel_tol * far_sq;
  for (std::size_t i = 1; i < n; ++i) {
    if (std::fabs(orient2d_value(a, b, points[i])) > threshold) return false;
  }
  return true;
}

bool all_collinear(std::span<const Vec2> points) {
  const std::size_t n = points.size();
  if (n <= 2) return true;
  // Find two distinct anchor points, then test the rest against them.
  std::size_t second = 1;
  while (second < n && points[second] == points[0]) ++second;
  if (second == n) return true;  // All coincident.
  for (std::size_t i = second + 1; i < n; ++i) {
    if (orient2d(points[0], points[second], points[i]) != 0) return false;
  }
  return true;
}

}  // namespace lumen::geom
