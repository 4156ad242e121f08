#include "core/view.hpp"

#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "geom/simd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lumen::core {

using geom::Vec2;

std::vector<Vec2> LocalView::hull_points() const {
  std::vector<Vec2> out;
  out.reserve(hull.size());
  for (const std::size_t i : hull) out.push_back(pts[i]);
  return out;
}

namespace {

/// Role for a fully collinear view: extreme along the line -> kLineEnd.
Role line_role(std::span<const Vec2> pts) {
  // Observer is pts[0] at the origin. Find any distinct point to fix the
  // line direction, then check whether all points lie on one side.
  Vec2 dir{};
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i] != pts[0]) {
      dir = pts[i] - pts[0];
      break;
    }
  }
  if (dir == Vec2{}) return Role::kAlone;
  bool has_positive = false, has_negative = false;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double t = geom::dot(pts[i] - pts[0], dir);
    if (t > 0.0) has_positive = true;
    if (t < 0.0) has_negative = true;
  }
  return (has_positive && has_negative) ? Role::kLine : Role::kLineEnd;
}

/// Points of the corner test's opening sample, besides the last point.
constexpr std::size_t kConeSample = 16;

/// True iff pts[0] is a strict vertex of the convex hull of `pts`, i.e.
/// every point distinct from it lies in one open half-plane through it.
/// O(m) and exact: a cone [right, left] around pts[0] (CCW, opening below
/// pi) grows to take in each point; a point that would open it to pi or
/// more — including one exactly opposite a degenerate cone's ray — proves
/// pts[0] is not a strict vertex. Points equal to pts[0] are skipped, as
/// convex_hull_indices drops them as duplicates of the lower index 0. The
/// strict hull is unique, so this agrees with index 0 being in
/// convex_hull_indices(pts).
///
/// The answer is a property of the point set, so the cone may take the
/// points in any order and any point more than once. Looks deliver them in
/// angular sweep order, in which the cone would widen at almost every
/// point; a stride sample first opens it close to its final width, and the
/// full pass then steps only the points simd::cone_skip cannot certify
/// strictly inside it (stepping a point strictly inside changes nothing).
bool origin_is_strict_vertex(std::span<const Vec2> pts) {
  const Vec2 o = pts[0];
  const std::size_t m = pts.size();
  const auto sign = [](double a, double b) { return (a > b) - (a < b); };
  std::size_t right = 0;  // 0: no distinct point seen yet.
  std::size_t left = 0;
  // Takes pts[i] into the cone; false when it proves o is not a vertex.
  const auto step = [&](std::size_t i) {
    const Vec2 p = pts[i];
    if (p == o) return true;
    if (right == 0) {
      right = left = i;
      return true;
    }
    const int o_right = geom::orient2d_inline(o, pts[right], p);
    if (o_right < 0) {
      // Clockwise of the cone: widen it to [p, left], if that stays below pi.
      if (geom::orient2d_inline(o, p, pts[left]) <= 0) return false;
      right = i;
    } else if (geom::orient2d_inline(o, pts[left], p) > 0) {
      // Counter-clockwise of the cone: widen it to [right, p].
      if (geom::orient2d_inline(o, pts[right], p) <= 0) return false;
      left = i;
    } else if (right == left && o_right == 0) {
      // On the line of a one-ray cone: in it iff on the same side of o
      // (exact: the signs of coordinate differences are exact).
      const Vec2 r = pts[right];
      if (sign(p.x, o.x) != sign(r.x, o.x) || sign(p.y, o.y) != sign(r.y, o.y)) {
        return false;
      }
    }
    return true;
  };
  const std::size_t stride = std::max<std::size_t>(1, (m - 1) / kConeSample);
  for (std::size_t i = 1; i < m; i += stride) {
    if (!step(i)) return false;
  }
  if (!step(m - 1)) return false;
  for (std::size_t i = 1; i < m; ++i) {
    if (right != 0) {
      i = geom::simd::cone_skip(pts.data(), m, i, o, pts[right], pts[left]);
      if (i == m) break;
    }
    if (!step(i)) return false;
  }
  return true;
}

/// scan_nearest_hull_edge's filter for questions about the whole hull.
constexpr auto kEveryEdge = [](std::size_t, std::size_t) { return true; };

}  // namespace

LocalView build_view(const model::Snapshot& snap) {
  LocalView view;
  // Zero-copy: the snapshot already stores [self, visible...] in parallel
  // arrays with self at the origin — exactly the view's index convention.
  view.pts = snap.all_positions();
  view.lights = snap.lights;
  if (view.pts.size() <= 1) {
    view.role = Role::kAlone;
    return view;
  }
  // Tolerant line test: local-frame transforms perturb exactly collinear
  // world configurations by rounding noise, so the LINE role must be decided
  // within a relative tolerance (DESIGN.md §3, real-RAM substitution).
  if (geom::nearly_collinear(view.pts)) {
    view.role = line_role(view.pts);
    return view;
  }
  if (origin_is_strict_vertex(view.pts)) {
    view.role = Role::kCorner;
    return view;
  }
  // Not a strict vertex, and no hull vertex shares its position (a
  // duplicate would have kept index 0 instead): the observer is on an
  // edge's open interior (Side) or strictly inside.
  view.hull = geom::convex_hull_indices(view.pts);
  view.role = containing_hull_edge(view) ? Role::kSide : Role::kInterior;
  return view;
}

std::optional<GateEdge> nearest_hull_edge(const LocalView& view) {
  return scan_nearest_hull_edge(view, view.self(), kEveryEdge);
}

double hull_edge_distance(const LocalView& view, Vec2 p) {
  const auto best = scan_nearest_hull_edge(view, p, kEveryEdge);
  return best ? best->distance : std::numeric_limits<double>::infinity();
}

double hull_edge_distance_bound(const LocalView& view, Vec2 centre, Vec2 p) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::numeric_limits<double>::infinity();
  // CCW turn from hull vertex 0 to q around `centre`, as the diamond
  // pseudo-angle of (dot, cross) in [0, 4): no atan2, and it rises along
  // the hull for an interior centre just as the angle does. Rounding can
  // only make the search land on a neighbouring edge, which is still a
  // valid bound (the result is the scan's own double for that edge).
  const Vec2 ray0 = view.pts[view.hull[0]] - centre;
  const auto turn = [&](Vec2 q) {
    const Vec2 d = q - centre;
    const double x = geom::dot(ray0, d);
    const double y = geom::cross(ray0, d);
    if (x == 0.0 && y == 0.0) return 0.0;
    if (y >= 0.0) return x >= 0.0 ? y / (x + y) : 1.0 - x / (y - x);
    return x < 0.0 ? 2.0 - y / (-x - y) : 3.0 + x / (x - y);
  };
  const double target = turn(p);
  std::size_t lo = 0;  // Last hull position whose turn is <= target.
  std::size_t hi = h;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (turn(view.pts[view.hull[mid]]) <= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return geom::point_segment_distance(
      {view.pts[view.hull[lo]], view.pts[view.hull[(lo + 1) % h]]}, p);
}

Vec2 hull_vertex_mean(const LocalView& view) {
  Vec2 mean{};
  for (const std::size_t i : view.hull) mean += view.pts[i];
  return mean / static_cast<double>(view.hull.size());
}

std::optional<GateEdge> containing_hull_edge(const LocalView& view) {
  const std::size_t h = view.hull.size();
  const Vec2 self = view.self();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (geom::on_segment_open(view.pts[i1], view.pts[i2], self)) {
      return GateEdge{i1, i2, view.pts[i1], view.pts[i2], 0.0, k};
    }
  }
  return std::nullopt;
}

bool gate_blocked_by_closer_robot(const LocalView& view, const GateEdge& gate) {
  const Vec2 a = view.self();
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    if (i == gate.i1 || i == gate.i2) continue;
    const Vec2 p = view.pts[i];
    // Strictly inside triangle (a, c1, c2)? The triangle is oriented
    // (a, c1, c2) or (a, c2, c1); all three signs must agree and be
    // nonzero, so each test short-circuits the next — most robots fail on
    // the first edge, which keeps this O(n) scan out of the profile.
    const int o1 = geom::orient2d_inline(a, gate.c1, p);
    if (o1 == 0) continue;
    const int o2 = geom::orient2d_inline(gate.c1, gate.c2, p);
    if (o2 != o1) continue;
    const int o3 = geom::orient2d_inline(gate.c2, a, p);
    if (o3 == o1) return true;
  }
  return false;
}

}  // namespace lumen::core
