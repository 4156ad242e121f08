// lumen_geom: convex hulls and convex-position tests.
//
// Every robot's Compute step begins by classifying itself against the convex
// hull of its snapshot, and the global termination condition of Complete
// Visibility is "all N robots in strictly convex position". Hulls come back
// as INDEX lists into the caller's point span, so callers can map hull
// vertices back to robots without position lookups. Two builders, both over
// exact orientation predicates, give the same list for the same points:
//   - convex_hull_indices: Andrew's monotone chain over an exact
//     lexicographic sort — any input;
//   - sweep_hull_indices: one Graham pass over the input's own order, for
//     a snapshot whose observer (pts[0]) is strictly interior and whose
//     other points arrive in angular sweep order. It first certifies that
//     order exactly and declines (returns false) when it cannot.
#pragma once

#include "geom/vec2.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace lumen::geom {

/// Convex hull of `points` (duplicates allowed), counter-clockwise, starting
/// from the lexicographically smallest point. STRICT vertices only: points on
/// the relative interior of hull edges are excluded. Returns indices into
/// `points`.
///   - 0 points -> {}
///   - 1 point  -> {0}
///   - all collinear -> the two extreme indices (degenerate "hull").
[[nodiscard]] std::vector<std::size_t> convex_hull_indices(
    std::span<const Vec2> points);

/// The hull of a view whose observer `pts[0]` is STRICTLY inside it, built
/// without a sort: on success `hull` holds exactly convex_hull_indices(pts)
/// and the function returns true. The points pts[1..] not certified strictly
/// inside their extreme quad (simd::hull_cull_mask) form the fringe, kept
/// in input order. The pass then checks, with exact orientations, that
/// every cyclically consecutive fringe pair turns around pts[0] with one
/// common nonzero sign (either sign, so reflected frames pass) and that the
/// fringe crosses the positive x-ray of pts[0] exactly once. Together these
/// prove pts[0] strictly interior and the fringe strictly sorted by angle
/// around it. One Graham pass from the lexicographically smallest fringe
/// point, walked counter-clockwise, then emits the strict hull. When a check
/// fails (pts[0] on the boundary or outside, a duplicate or a coincident
/// point, two directions out of order, a sweep that winds more than once)
/// the function returns false and leaves `hull` untouched.
[[nodiscard]] bool sweep_hull_indices(std::span<const Vec2> pts,
                                      std::vector<std::size_t>& hull);

/// True iff EVERY point of the set is a strict vertex of the set's convex
/// hull — the paper's target configuration (Complete Visibility holds iff
/// this does, for distinct points).
[[nodiscard]] bool points_in_strictly_convex_position(std::span<const Vec2> points);

/// True iff all points lie on one straight line (trivially true for n <= 2).
[[nodiscard]] bool all_collinear(std::span<const Vec2> points);

/// True iff every point lies within rel_tol * L of one line, where L is the
/// anchor span of the set. Exact collinearity is destroyed by local-frame
/// similarity transforms (each coordinate rounds independently), so the
/// LINE-configuration classification of the algorithms uses this tolerant
/// test; rel_tol must sit above the transform noise (~1e-13) and below any
/// genuine 2-D extent the generators produce (>= 1e-6 relative).
[[nodiscard]] bool nearly_collinear(std::span<const Vec2> points,
                                    double rel_tol = 1e-9);

}  // namespace lumen::geom
