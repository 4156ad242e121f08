// Hull queries only the tests ask — the oracles behind the hull, view and
// beacon suites' soundness checks. The product classifies robots with
// core::build_view and picks gates with core::scan_nearest_hull_edge; these
// answer the same questions from first principles (exact orientation
// against every edge, the unfiltered edge scan) so the tests can compare.
#pragma once

#include "core/view.hpp"
#include "geom/predicates.hpp"
#include "geom/vec2.hpp"

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace lumen::geom {

/// Position of a query point relative to the hull of a point set.
enum class HullPosition {
  kVertex,    ///< A strict corner of the hull.
  kEdge,      ///< On the boundary but not a corner (relative interior of an edge).
  kInterior,  ///< Strictly inside.
  kOutside,   ///< Strictly outside (possible only for points not in the set).
};

/// Classifies `query` against the convex hull given by CCW `hull` positions.
/// `hull` must be a valid CCW convex polygon (or a degenerate 1-2 point
/// hull, for which everything on the segment is kVertex/kEdge). Not
/// inlined: inlined into a call on a one-point hull, GCC 12 flags the
/// unreachable two-point branch with -Warray-bounds.
[[nodiscard, gnu::noinline]] inline HullPosition classify_against_hull(
    std::span<const Vec2> hull, Vec2 query) {
  const std::size_t h = hull.size();
  if (h == 0) return HullPosition::kOutside;
  if (h == 1) return query == hull[0] ? HullPosition::kVertex : HullPosition::kOutside;
  if (h == 2) {
    if (query == hull[0] || query == hull[1]) return HullPosition::kVertex;
    return on_segment_open(hull[0], hull[1], query) ? HullPosition::kEdge
                                                    : HullPosition::kOutside;
  }
  bool on_boundary = false;
  for (std::size_t i = 0; i < h; ++i) {
    const Vec2 a = hull[i];
    const Vec2 b = hull[(i + 1) % h];
    if (query == a) return HullPosition::kVertex;
    const int o = orient2d(a, b, query);
    if (o < 0) return HullPosition::kOutside;
    if (o == 0 && on_segment_closed(a, b, query)) on_boundary = true;
  }
  return on_boundary ? HullPosition::kEdge : HullPosition::kInterior;
}

}  // namespace lumen::geom

namespace lumen::core {

/// The view's hull vertex positions, CCW.
[[nodiscard]] inline std::vector<geom::Vec2> hull_points(const LocalView& view) {
  std::vector<geom::Vec2> out;
  out.reserve(view.hull.size());
  for (const std::size_t i : view.hull) out.push_back(view.pts[i]);
  return out;
}

/// The hull edge nearest to the observer (its gate candidate).
/// Empty when the view has no 2-D hull (fewer than 3 hull vertices).
[[nodiscard]] inline std::optional<GateEdge> nearest_hull_edge(
    const LocalView& view) {
  return scan_nearest_hull_edge(view, view.self(),
                                [](std::size_t, std::size_t) { return true; });
}

}  // namespace lumen::core
