// lumen_geom: runtime-dispatched SIMD batch kernels over split arrays.
//
// The two hottest inner loops of the geometry substrate — the per-observer
// angular-key build that feeds the visibility sort, and the Akl–Toussaint
// interior cull that shrinks the convex-hull candidate set — are data
// parallel over the SoA coordinate arrays. This layer provides batched
// versions of both, compiled per instruction set (SSE2/AVX2 on x86-64, NEON
// on aarch64, plus an always-present scalar reference) and selected once at
// startup: the best level the host supports, overridable with
// LUMEN_SIMD=scalar|sse2|avx2|neon (unsupported requests clamp down; the
// scalar fallback always exists). Compute's per-point scans over a view —
// the line test's farthest point, the nearest-neighbour distance, the
// exit-corridor test and the corner test's cone membership — are batched
// the same way.
//
// The hard contract is BIT-IDENTITY: every level produces byte-for-byte the
// same AngularKey sequences, presort records, cull mask and scan answers as
// the scalar reference. The vector kernels evaluate exactly the scalar formulas —
// same IEEE operations in the same order, compiled with FP contraction off
// so no fused multiply-add can change a rounding — and SIMD is only ever
// allowed to CERTIFY a stage-A decision the scalar filter would also
// certify, never to decide an uncertain one (uncertain lanes keep the
// conservative outcome, exactly like the scalar certify-only filters).
// tests/geom_simd_test.cpp pins scalar-vs-vector equality per kernel and
// end-to-end through the golden-seed digests.
#pragma once

#include "geom/segment.hpp"
#include "geom/vec2.hpp"
#include "geom/visibility.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lumen::geom::simd {

/// Dispatch levels in increasing preference order. kSse2 and kNeon are both
/// "128-bit wide" kernels (two double lanes); which one exists depends on
/// the architecture the library was compiled for.
enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
  kNeon = 2,
  kAvx2 = 3,
};

[[nodiscard]] std::string_view to_string(Level level) noexcept;
[[nodiscard]] std::optional<Level> level_from_string(std::string_view s) noexcept;

/// The widest level this binary supports on this host (compile-time kernel
/// availability AND runtime CPU feature detection).
[[nodiscard]] Level best_supported_level() noexcept;

/// The level batch kernels currently dispatch to. Resolved once on first
/// use: best_supported_level() unless the LUMEN_SIMD environment variable
/// names a supported level (an unsupported or unknown value falls back to
/// the best supported level with a one-time stderr warning).
[[nodiscard]] Level active_level() noexcept;

/// Forces the active level (tests and benchmarks compare levels this way).
/// Returns false — and leaves the active level unchanged — if this binary
/// cannot run `level` here. Not thread-safe against concurrent kernel
/// calls; switch only between runs.
bool set_active_level(Level level) noexcept;

/// Batched SoA angular-key build — the one key builder of the visibility
/// kernel — over pt(j) = {xs[j], ys[j]} (observer `i` and coincident points
/// skipped), filling scratch.upper/lower with the half-partitioned
/// AngularKeys (in index order) AND scratch.upper_order/lower_order with
/// the (akey bits << 32 | slot) presort records the bucket sort consumes.
/// All four vectors are sized exactly (a cheap counting pass precedes the
/// build), so cold calls reserve the true split instead of 2x the point
/// count.
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);

/// Value-bucketed presort of (float_bits << 32 | slot) records, whose keys
/// are bit images of finite non-negative floats bounded by max_key (keys
/// landing exactly on max_key are clamped into the last bucket). One
/// value-proportional bucket scatter (vector levels batch its
/// float->bucket computation) followed by per-bucket comparison sorts of
/// the tiny runs; the result is the full ascending 64-bit order, which is
/// CANONICAL — every level produces identical bytes by construction, so
/// this kernel carries no bit-identity risk at all. `tmp` is the bucket
/// cursor + scatter workspace and keeps its capacity across calls.
void sort_angular_records(std::vector<std::uint64_t>& records,
                          std::vector<std::uint64_t>& tmp, float max_key);

/// Batched Akl–Toussaint stage-A cull: inside[j] = 1 iff point j is
/// CERTIFIED strictly inside the CCW quad (quad[0]..quad[3]) by the scalar
/// certify-only filter (geom/simd_common.hpp: certainly_left on all four
/// edges). Uncertified lanes report 0 ("keep"), so a hull built from the
/// surviving points is bit-identical to one built from all points.
void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside);

/// Squared distance from `from` to the nearest of pts[0..n) other than
/// pts[subject]: the minimum of distance_sq(from, pts[j]), folded as
/// `d < acc ? d : acc` from +inf (NaN distances never win). A minimum of
/// non-NaN doubles does not depend on the fold order, so lane-wise
/// accumulators give the scalar loop's value exactly. +inf when no other
/// point exists.
[[nodiscard]] double nearest_distance_sq(const Vec2* pts, std::size_t n,
                                         std::size_t subject, Vec2 from);

/// The first index of the largest distance_sq(from, pts[j]) over [0, n),
/// counting only distances above zero: the scalar loop starts from index 0
/// at distance 0 and moves on `d > far_sq`, so a NaN distance never wins
/// and 0 comes back when no point lies away from `from` (or n == 0). Lanes
/// keep their own first maximum and the reduction takes the largest value
/// at the smallest index, so every level returns the scalar loop's index.
[[nodiscard]] std::size_t farthest_index(const Vec2* pts, std::size_t n,
                                         Vec2 from);

/// True iff some pts[j], j not in skip[0..2], has
/// point_segment_distance_within(s, pts[j], r) <= r — the corridor test of
/// the exit planner, over a whole view. Lanes evaluate
/// closest_point_on_segment with the same IEEE operations in the same
/// order and apply the same max-norm certificate; only lanes that survive
/// it (rare) pay for the scalar hypot, so the answer is the scalar loop's
/// for every double input.
[[nodiscard]] bool any_within_segment(const Vec2* pts, std::size_t n,
                                      const Segment& s, double r,
                                      const std::size_t skip[3]);

/// The first j in [i, n) whose point is NOT certified strictly inside the
/// cone around `o` from ray o->right counter-clockwise to ray o->left
/// (n when there is none). Certified means the stage-A filter
/// (simd_common.hpp: certainly_inside_cone) proves orient2d(o, right, p) > 0
/// and orient2d(o, p, left) > 0. Vector levels test whole blocks and
/// locate the failing lane inside the first block that has one, so every
/// level returns the same index. A one-ray cone (right == left) certifies
/// nothing.
[[nodiscard]] std::size_t cone_skip(const Vec2* pts, std::size_t n,
                                    std::size_t i, Vec2 o, Vec2 right,
                                    Vec2 left);

}  // namespace lumen::geom::simd
