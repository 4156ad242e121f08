// lumen_geom: 128-bit (two double lanes) batch kernels.
//
// Compiled on every 64-bit target whose baseline ISA has 128-bit vectors:
// SSE2 on x86-64, NEON on aarch64 — no target region needed, the generic
// vector-extension code in simd_batch.inl lowers to whichever the target
// provides. Reported as Level::kSse2 or Level::kNeon accordingly.
#include "geom/simd_common.hpp"
#include "geom/simd_kernels.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

namespace lumen::geom::simd {

namespace wide128 {
namespace {

#define LUMEN_SIMD_LANES 2
#include "geom/simd_batch.inl"
#undef LUMEN_SIMD_LANES

}  // namespace
}  // namespace wide128

const detail::Kernels detail::kWide128Kernels = {
#if defined(__aarch64__) || defined(_M_ARM64)
    .level = Level::kNeon,
#else
    .level = Level::kSse2,
#endif
    .count_keys = wide128::count_keys,
    .append_keys = wide128::append_keys,
    .bucket_scatter = wide128::bucket_scatter,
    .hull_cull_mask = wide128::hull_cull_mask,
    .nearest_distance_sq = wide128::nearest_distance_sq,
    .farthest_index = wide128::farthest_index,
    .any_within_segment = wide128::any_within_segment,
    .cone_skip = wide128::cone_skip,
};

}  // namespace lumen::geom::simd
