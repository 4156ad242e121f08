// lumen_geom: 256-bit (four double lanes) batch kernels for AVX2 hosts.
//
// Only the kernel bodies are compiled for AVX2: they sit in a
// `#pragma GCC target("avx2")` region opened after every #include, inside
// an unnamed namespace. Header code this TU emits (inline helpers, library
// templates) is therefore baseline code like everywhere else, and the one
// symbol the TU exports is its kernel table, which simd.cpp selects only
// when __builtin_cpu_supports("avx2") says the host can run it. A TU-wide
// -mavx2 would instead compile every weak inline copy for AVX2, and the
// linker may keep that copy for undispatched callers. -ffp-contract=off
// (project-wide) keeps GCC from fusing the vector multiply-adds, which
// would change roundings versus the scalar reference.
#include "geom/simd_common.hpp"
#include "geom/simd_kernels.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

namespace lumen::geom::simd {

namespace avx2 {
namespace {

#pragma GCC push_options
#pragma GCC target("avx2")
#define LUMEN_SIMD_LANES 4
#include "geom/simd_batch.inl"
#undef LUMEN_SIMD_LANES
#pragma GCC pop_options

}  // namespace
}  // namespace avx2

const detail::Kernels detail::kAvx2Kernels = {
    .level = Level::kAvx2,
    .count_keys = avx2::count_keys,
    .append_keys = avx2::append_keys,
    .bucket_scatter = avx2::bucket_scatter,
    .hull_cull_mask = avx2::hull_cull_mask,
    .nearest_distance_sq = avx2::nearest_distance_sq,
    .farthest_index = avx2::farthest_index,
    .any_within_segment = avx2::any_within_segment,
    .cone_skip = avx2::cone_skip,
};

}  // namespace lumen::geom::simd
