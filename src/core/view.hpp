// lumen_core: classification of a snapshot into the algorithm's vocabulary.
//
// Every rule of the reconstructed algorithm starts from the same geometric
// digest of the snapshot: the local convex hull, the observer's role against
// it, and — for non-corners — the candidate gate edge. A key soundness
// property (tested in tests/core_view_test.cpp) is that the LOCAL
// classification equals the GLOBAL role despite obstructed visibility:
//   - a robot is a strict vertex of its visible set's hull  iff  it is a
//     strict vertex of the global hull;
//   - it lies on a local hull edge  iff  it lies on a global hull edge;
//   - local line configurations are exactly the global collinear ones
//     restricted to what obstruction lets a robot see.
// (Sketch: if r is strictly inside the global hull, every open half-plane
// through r contains a robot of the set, and the nearest robot toward it on
// that ray is visible — so r's visible set surrounds it.)
#pragma once

#include "geom/segment.hpp"
#include "geom/vec2.hpp"
#include "model/light.hpp"
#include "model/snapshot.hpp"

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace lumen::core {

enum class Role {
  kAlone,     ///< Sees nobody.
  kCorner,    ///< Strict vertex of the local hull.
  kSide,      ///< Relative interior of a local hull edge.
  kInterior,  ///< Strictly inside the local hull.
  kLine,      ///< Entire snapshot collinear, observer not extreme.
  kLineEnd,   ///< Entire snapshot collinear, observer extreme.
};

/// The digest all Compute rules share. Index 0 is always the observer
/// (at the local origin); indices 1.. are the visible robots in snapshot
/// order. The point and light spans BORROW the snapshot's parallel arrays
/// (build_view copies nothing), so a view must not outlive the Snapshot it
/// was built from — the hull index list is the only owned state.
struct LocalView {
  std::span<const geom::Vec2> pts;     ///< Observer first, then visible robots.
  std::span<const model::Light> lights;  ///< Parallel to pts.
  /// CCW strict-vertex indices into pts (geom::convex_hull_indices, or the
  /// identical geom::sweep_hull_indices for certified Interior views). Built
  /// only for kSide and kInterior views, the only roles whose rules read
  /// it; EMPTY for kCorner (decided without a hull), kLine, kLineEnd and
  /// kAlone.
  std::vector<std::size_t> hull;
  Role role = Role::kAlone;

  [[nodiscard]] std::size_t count() const noexcept { return pts.size(); }
  [[nodiscard]] geom::Vec2 self() const noexcept { return pts.empty() ? geom::Vec2{} : pts[0]; }
};

/// Builds the digest from a snapshot. The returned view aliases `snap`'s
/// position and light storage; keep the snapshot alive while using it.
/// kCorner is decided by an O(m) exact test (every other visible point lies
/// in one open half-plane through the observer), so Corner views — most
/// Looks — never pay for a hull. Interior views take
/// geom::sweep_hull_indices: an O(m) exact certificate that the snapshot's
/// sweep order is the angular order around a strictly interior observer,
/// then one Graham pass, with no sort and no edge scan. Views it declines
/// (Side views, and sweeps the local frame's rounding reordered) build the
/// sort-based geom::convex_hull_indices and scan for the containing edge.
/// Either way `hull` is the same list.
[[nodiscard]] LocalView build_view(const model::Snapshot& snap);

/// A gate: a hull edge through which an interior/side robot exits.
struct GateEdge {
  std::size_t i1 = 0;  ///< Index (into LocalView::pts) of the first endpoint.
  std::size_t i2 = 0;  ///< Second endpoint; (i1, i2) is CCW on the hull.
  geom::Vec2 c1{};
  geom::Vec2 c2{};
  double distance = 0.0;  ///< Observer's distance to the closed edge.
  /// Hull position of i1: view.hull[k] == i1, view.hull[(k + 1) % h] == i2.
  std::size_t k = 0;
};

/// The hull edge nearest to `p` among the edges (i1, i2) that `keep`
/// accepts: the one O(h) edge scan behind every nearest-edge question
/// (hull_edge_distance, the algorithms' gate choices).
/// Hull order with a strict `<`, so ties keep the first edge. Each edge
/// goes through geom::point_segment_distance_within against the best so
/// far, so edges certified farther skip hypot. Empty without a 2-D hull
/// (fewer than 3 hull vertices) or when no kept edge is at finite distance.
template <class Keep>
[[nodiscard]] std::optional<GateEdge> scan_nearest_hull_edge(const LocalView& view,
                                                             geom::Vec2 p, Keep keep) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::nullopt;
  std::optional<GateEdge> best;
  double best_distance = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (!keep(i1, i2)) continue;
    const geom::Segment e{view.pts[i1], view.pts[i2]};
    const double d = geom::point_segment_distance_within(e, p, best_distance);
    if (d < best_distance) {
      best_distance = d;
      best = GateEdge{i1, i2, e.a, e.b, d, k};
    }
  }
  return best;
}

/// Exact distance from `p` to the nearest hull edge — an O(h) scan over
/// every hull edge. +inf without a 2-D hull.
[[nodiscard]] double hull_edge_distance(const LocalView& view, geom::Vec2 p);

/// An upper bound on hull_edge_distance(view, p) in O(log h): the distance
/// from `p` to the one hull edge whose angular sector around `centre` (an
/// interior point, e.g. the hull-vertex mean) holds `p`. It is the very
/// double the exact scan computes for that edge, so it is never below the
/// exact minimum, whichever edge the search lands on. +inf without a 2-D
/// hull.
[[nodiscard]] double hull_edge_distance_bound(const LocalView& view,
                                              geom::Vec2 centre, geom::Vec2 p);

/// Mean of the hull vertices: an interior point of any 2-D hull (up to
/// rounding), used to orient edge normals and to centre angular searches.
[[nodiscard]] geom::Vec2 hull_vertex_mean(const LocalView& view);

/// The hull edge whose open relative interior contains the observer — the
/// Side robot's own edge. Empty when the observer is not a Side robot.
[[nodiscard]] std::optional<GateEdge> containing_hull_edge(const LocalView& view);

/// True iff any visible robot lies strictly inside triangle
/// (observer, gate.c1, gate.c2) — someone is closer to the gate, observer
/// must defer.
[[nodiscard]] bool gate_blocked_by_closer_robot(const LocalView& view,
                                                const GateEdge& gate);

}  // namespace lumen::core
