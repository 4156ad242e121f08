// lumen_geom: scalar reference implementation of the batch kernels.
//
// This level always exists (LUMEN_SIMD=scalar selects it, and hosts with
// no vector kernels compiled in fall back to it). It IS the bit-identity
// reference: every vector level must reproduce these outputs byte for
// byte. Sizing, the small-input sort and the presort's finishing pass live
// in simd.cpp and are shared by every level, so "scalar" differs from the
// vector levels only in lane width, never in behavior.
#include "geom/simd_common.hpp"
#include "geom/simd_kernels.hpp"

#include <algorithm>
#include <limits>

namespace lumen::geom::simd {

namespace scalar {
namespace {

void count_keys(const double* xs, const double* ys, std::size_t begin,
                std::size_t end, Vec2 o, std::size_t& n_upper,
                std::size_t& n_valid) {
  for (std::size_t j = begin; j < end; ++j) {
    detail::count_key(Vec2{xs[j] - o.x, ys[j] - o.y}, n_upper, n_valid);
  }
}

void append_keys(const double* xs, const double* ys, std::size_t begin,
                 std::size_t end, Vec2 o, detail::KeySink& sink) {
  for (std::size_t j = begin; j < end; ++j) {
    detail::sink_key(Vec2{xs[j] - o.x, ys[j] - o.y}, j, sink);
  }
}

void bucket_scatter(const std::uint64_t* records, std::size_t m,
                    std::size_t nb, float scale, std::uint64_t* cursors,
                    std::uint64_t* dst) {
  std::fill_n(cursors, nb, std::uint64_t{0});
  for (std::size_t k = 0; k < m; ++k) {
    ++cursors[detail::bucket_of(records[k], nb, scale)];
  }
  detail::exclusive_prefix_sum(cursors, nb);
  for (std::size_t k = 0; k < m; ++k) {
    dst[cursors[detail::bucket_of(records[k], nb, scale)]++] = records[k];
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

std::size_t farthest_index(const Vec2* pts, std::size_t n, Vec2 from) {
  std::size_t far = 0;
  double far_sq = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    detail::fold_farthest(far, far_sq, from, pts[j], j);
  }
  return far;
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

}  // namespace
}  // namespace scalar

const detail::Kernels detail::kScalarKernels = {
    .level = Level::kScalar,
    .count_keys = scalar::count_keys,
    .append_keys = scalar::append_keys,
    .bucket_scatter = scalar::bucket_scatter,
    .hull_cull_mask = scalar::hull_cull_mask,
    .nearest_distance_sq = scalar::nearest_distance_sq,
    .farthest_index = scalar::farthest_index,
    .any_within_segment = scalar::any_within_segment,
    .cone_skip = scalar::cone_skip,
};

}  // namespace lumen::geom::simd
