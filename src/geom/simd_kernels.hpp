// lumen_geom (private): the kernel table behind the geom/simd.hpp dispatch.
//
// Each dispatch level's translation unit (simd_scalar.cpp, simd_wide128.cpp,
// simd_avx2.cpp) keeps its kernels in an unnamed namespace and exports
// exactly one const Kernels table; simd.cpp selects a table once and calls
// through it. Kernels take raw pointers into buffers simd.cpp has already
// sized, so no level ever grows a container and no library template is
// instantiated inside an ISA-specific region.
#pragma once

#include "geom/segment.hpp"
#include "geom/simd.hpp"
#include "geom/vec2.hpp"
#include "geom/visibility.hpp"

#include <cstddef>
#include <cstdint>

namespace lumen::geom::simd::detail {

/// Write cursors into the key build's pre-sized outputs: each half's key
/// and presort-record arrays, and how many of each have been written. The
/// arrays hold one slot of slack beyond the exact split (the 4-lane level's
/// both-sides store writes one slot past the last real key).
struct KeySink {
  AngularKey* up_keys;
  std::uint64_t* up_order;
  AngularKey* lo_keys;
  std::uint64_t* lo_order;
  std::size_t up_pos = 0;
  std::size_t lo_pos = 0;
};

/// One dispatch level's kernels. Every level returns byte-for-byte the
/// results of the scalar table (the contract in geom/simd.hpp).
struct Kernels {
  Level level;
  /// Adds to n_upper / n_valid the points of [begin, end) distinct from `o`
  /// that lie in the upper half-plane / at all.
  void (*count_keys)(const double* xs, const double* ys, std::size_t begin,
                     std::size_t end, Vec2 o, std::size_t& n_upper,
                     std::size_t& n_valid);
  /// Writes the keys and presort records of the points of [begin, end)
  /// distinct from `o`, in index order, at the sink's cursors.
  void (*append_keys)(const double* xs, const double* ys, std::size_t begin,
                      std::size_t end, Vec2 o, KeySink& sink);
  /// The presort's bucket pass over records[0..m): histogram into
  /// cursors[0..nb), exclusive prefix sum, then a stable scatter into
  /// dst[0..m). On return cursors[b] is the END offset of bucket b.
  void (*bucket_scatter)(const std::uint64_t* records, std::size_t m,
                         std::size_t nb, float scale, std::uint64_t* cursors,
                         std::uint64_t* dst);
  void (*hull_cull_mask)(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                         std::uint8_t* inside);
  double (*nearest_distance_sq)(const Vec2* pts, std::size_t n,
                                std::size_t subject, Vec2 from);
  std::size_t (*farthest_index)(const Vec2* pts, std::size_t n, Vec2 from);
  bool (*any_within_segment)(const Vec2* pts, std::size_t n, const Segment& s,
                             double r, const std::size_t skip[3]);
  std::size_t (*cone_skip)(const Vec2* pts, std::size_t n, std::size_t i,
                           Vec2 o, Vec2 right, Vec2 left);
};

/// The per-level tables. The scalar one always exists; the others are
/// defined only when src/geom/CMakeLists.txt compiles their TU
/// (LUMEN_SIMD_HAVE_WIDE128, LUMEN_SIMD_HAVE_AVX2).
extern const Kernels kScalarKernels;
extern const Kernels kWide128Kernels;
extern const Kernels kAvx2Kernels;

}  // namespace lumen::geom::simd::detail
