// lumen_core: Beacon-directed insertion targets.
//
// The geometric core of the O(log N) algorithm: given a gate edge (c1, c2)
// of the observer's local hull, compute a point p strictly OUTSIDE the edge
// that (i) becomes a strict hull corner, (ii) keeps c1, c2 (and every other
// hull vertex) strict corners, and (iii) gives concurrent movers at the same
// edge distinct, non-crossing straight paths.
//
// Construction (DESIGN.md §4.1): p = base + h * n with
//   base = c1 + lambda * (c2 - c1),  lambda = 0.15 + 0.7 * t,
//   t    = observer's normalized projection onto the edge (a bijection, so
//          distinct movers get distinct columns — no clamping plateaus),
//   n    = outward unit normal,
//   h    = min(0.25 * |edge|, 0.45 * h_wedge) * (0.4 + 0.5 * lambda),
// where h_wedge is the height at which p would leave the pocket bounded by
// the extensions of the hull edges adjacent to c1 and c2 (keeping those
// vertices convex). The lambda-dependent factor makes same-edge insertions
// from successive stages non-collinear.
#pragma once

#include "core/view.hpp"
#include "geom/vec2.hpp"

#include <optional>
#include <span>
#include <vector>

namespace lumen::core {

/// Insertion point for an INTERIOR observer exiting through `gate`.
/// Local coordinates. nullopt when the gate is degenerate.
[[nodiscard]] std::optional<geom::Vec2> interior_insertion_target(
    const LocalView& view, const GateEdge& gate);

/// A fully resolved exit: which gate and where to land.
struct ExitPlan {
  GateEdge gate;
  geom::Vec2 target;
  double exit_distance = 0.0;  ///< |from -> target|, the handshake priority.
};

/// A Corner-lit gate with everything plan_exits needs about it that does
/// not depend on who exits: the edge, its length `len = norm(c2 - c1)`,
/// unit direction `u = (c2 - c1) / len` and outward unit normal `n`
/// (oriented away from the hull-vertex mean).
struct GateFrame {
  GateEdge gate;
  double len = 0.0;
  geom::Vec2 u{};
  geom::Vec2 n{};
};

/// The gate table of a view: one GateFrame per hull edge with both
/// endpoints Corner-lit, not incident to the observer and of nonzero
/// length, in hull order. Empty without a 2-D hull. Built once per Compute
/// and shared by the observer's planning and every rival it models.
[[nodiscard]] std::vector<GateFrame> gate_frames(const LocalView& view);

/// The ASYNC algorithm's exit planner, usable both for the observer itself
/// and for MODELLING a rival's intention (`from` = the rival's position).
/// Candidate gates are the frames whose PERPENDICULAR foot from `from`
/// lands comfortably inside the edge (t in [0.08, 0.92]); `plans` is
/// refilled with them nearest-gate-first. The target sits on the mover's
/// own column (straight perpendicular approach), so concurrent exits at one
/// edge follow parallel, non-crossing paths, at heights bounded by the
/// adjacent-edge wedge (every old corner stays a corner).
void plan_exits(const LocalView& view, std::span<const GateFrame> frames,
                geom::Vec2 from, std::vector<ExitPlan>& plans);

/// plan_exits over a fresh gate table: the same plans, for callers that
/// plan once per view.
[[nodiscard]] std::vector<ExitPlan> plan_exits(const LocalView& view,
                                               geom::Vec2 from);

/// The nearest hull edge not incident to the observer whose endpoints are
/// both Corner-lit: the gate of the ASYNC fallback insertion and of the
/// sequential baseline (scan_nearest_hull_edge with that filter).
[[nodiscard]] std::optional<GateEdge> nearest_corner_lit_gate(const LocalView& view);

/// Pop-out point for a SIDE observer sitting on `gate`'s open interior:
/// straight out along the edge's outward normal (a perpendicular path, so
/// same-edge poppers move in parallel), with a height that (a) stays small
/// against both edge fractions and (b) varies with the observer's position
/// along the edge to break collinearity among poppers.
[[nodiscard]] std::optional<geom::Vec2> side_popout_target(const LocalView& view,
                                                           const GateEdge& gate);

/// Escape move for a robot whose entire view is one line (Role::kLine):
/// perpendicular to the line by a quarter of the distance to the nearest
/// visible robot. The side is chosen in the observer's private frame —
/// an arbitrary local tie-break, admissible since robots share no chirality.
[[nodiscard]] geom::Vec2 line_escape_target(const LocalView& view);

}  // namespace lumen::core
