// lumen_geom: scalar reference implementation of the batch kernels.
//
// This level always exists (LUMEN_SIMD=scalar selects it, and hosts with
// no vector kernels compiled in fall back to it). It IS the bit-identity
// reference: every vector level must reproduce these outputs byte for
// byte. Note it still performs the exact-split counting pass and fuses the
// presort-record build, so "scalar" differs from the vector levels only in
// lane width, never in behavior.
#include "geom/simd.hpp"
#include "geom/simd_common.hpp"
#include "util/radix.hpp"

#include <limits>

namespace lumen::geom::simd::scalar {

void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch) {
  scratch.upper.clear();
  scratch.lower.clear();
  scratch.upper_order.clear();
  scratch.lower_order.clear();
  std::size_t n_upper = 0;
  std::size_t n_valid = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const double dx = xs[j] - o.x;
    const double dy = ys[j] - o.y;
    if (dx == 0.0 && dy == 0.0) continue;
    ++n_valid;
    if (dy > 0.0 || (dy == 0.0 && dx > 0.0)) ++n_upper;
  }
  scratch.upper.reserve(n_upper);
  scratch.upper_order.reserve(n_upper);
  scratch.lower.reserve(n_valid - n_upper);
  scratch.lower_order.reserve(n_valid - n_upper);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const double dx = xs[j] - o.x;
    const double dy = ys[j] - o.y;
    if (dx == 0.0 && dy == 0.0) continue;
    detail::append_key(Vec2{dx, dy}, static_cast<std::uint32_t>(j), scratch);
  }
}

void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside) {
  for (std::size_t j = 0; j < n; ++j) {
    inside[j] = detail::inside_quad(quad, pts[j]) ? 1 : 0;
  }
}

double nearest_distance_sq(const Vec2* pts, std::size_t n, std::size_t subject,
                           Vec2 from) {
  double acc = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) {
    if (j != subject) acc = detail::fold_nearest(acc, from, pts[j]);
  }
  return acc;
}

bool any_within_segment(const Vec2* pts, std::size_t n, const Segment& s,
                        double r, const std::size_t skip[3]) {
  for (std::size_t j = 0; j < n; ++j) {
    if (!detail::is_skipped(j, skip) && detail::within_segment(s, pts[j], r)) {
      return true;
    }
  }
  return false;
}

std::size_t cone_skip(const Vec2* pts, std::size_t n, std::size_t i, Vec2 o,
                      Vec2 right, Vec2 left) {
  const Vec2 r = right - o;
  const Vec2 l = left - o;
  for (std::size_t j = i; j < n; ++j) {
    if (!detail::certainly_inside_cone(r, l, pts[j] - o)) return j;
  }
  return n;
}

void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key) {
  util::sort_f32key_records(records, tmp, max_key);
}

}  // namespace lumen::geom::simd::scalar
