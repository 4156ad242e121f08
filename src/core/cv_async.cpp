#include "core/cv_async.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"
#include "geom/segment.hpp"
#include "geom/simd.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

namespace lumen::core {

using geom::Vec2;
using model::Action;
using model::Light;

namespace {

/// Conflict margin as a fraction of the shorter exit: paths closer than
/// this are arbitrated. Larger values serialize crossing fans; smaller
/// values admit closer concurrent flights (grazing shows up in the
/// min-separation audit). 0.02 balances the two empirically.
constexpr double kConflictMargin = 0.02;

/// True iff any visible robot shows a flight or intent light within
/// `radius` of the observer — the side-popper's proximity guard.
bool mover_within(const LocalView& view, double radius) {
  const double r_sq = radius * radius;
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    if ((view.lights[i] == Light::kTransit || view.lights[i] == Light::kMoving) &&
        geom::distance_sq(view.self(), view.pts[i]) <= r_sq) {
      return true;
    }
  }
  return false;
}

/// First plan (for the robot at pts[subject], usually the observer at 0)
/// whose approach corridor is free of parked robots: nobody may sit
/// essentially ON the straight path (grazing guard; a robot exactly on the
/// path would be run over). Gate anchors are at the edge ends, outside the
/// central approach band, so they never trip this. Used both for the
/// observer's own decision and — with the same logic, for estimate
/// consistency — to model a rival's plan. `frames` is the view's gate
/// table; `plans` is scratch, refilled on every call.
std::optional<ExitPlan> first_clear_plan(const LocalView& view,
                                         std::span<const GateFrame> frames,
                                         std::size_t subject,
                                         std::vector<ExitPlan>& plans) {
  const geom::Vec2 from = view.pts[subject];
  // Corridor width scales with the LOCAL packing (distance to the nearest
  // visible robot): wide enough to rule out grazing a parked robot, narrow
  // enough that dense configurations still admit many concurrent plans.
  // (Scaling it with the gate edge length instead throttles global
  // throughput to a constant — the hull edges are huge early on.)
  const double nearest_sq =
      geom::simd::nearest_distance_sq(view.pts.data(), view.pts.size(), subject, from);
  const double corridor =
      std::isfinite(nearest_sq) ? 0.05 * std::sqrt(nearest_sq) : 0.0;
  plan_exits(view, frames, from, plans);
  for (const ExitPlan& plan : plans) {
    const geom::Segment path{from, plan.target};
    const std::size_t skip[3] = {subject, plan.gate.i1, plan.gate.i2};
    if (!geom::simd::any_within_segment(view.pts.data(), view.pts.size(), path,
                                        corridor, skip)) {
      return plan;
    }
  }
  return std::nullopt;
}

/// Fallback for the rare observer whose perpendicular foot misses the
/// central band of EVERY eligible edge (it sits in the notch behind a hull
/// vertex): the diagonal lambda-squash insertion at the nearest eligible
/// gate. Diagonal paths are not modellable by rivals, so fallback flights
/// are serialized globally by the caller.
std::optional<ExitPlan> fallback_plan(const LocalView& view) {
  const auto best = nearest_corner_lit_gate(view);
  if (!best) return std::nullopt;
  if (gate_blocked_by_closer_robot(view, *best)) return std::nullopt;
  const auto target = interior_insertion_target(view, *best);
  if (!target) return std::nullopt;
  return ExitPlan{*best, *target, geom::distance(view.self(), *target)};
}

}  // namespace

Action CompleteVisibilityAsync::compute(const model::Snapshot& snap) const {
  const LocalView view = build_view(snap);
  switch (view.role) {
    case Role::kAlone:
      return Action::stay(Light::kCorner);

    case Role::kLineEnd:
      return Action::stay(Light::kLineEnd);

    case Role::kLine: {
      // Everything I see is one line and I am between neighbors: step off.
      // Endpoints hold still, so perpendicular escapes (distinct line
      // abscissae) can neither collide nor cross.
      return Action::move_to(line_escape_target(view), Light::kLine);
    }

    case Role::kCorner:
      // Anchors never move; a robot that just landed (kMoving) and is now a
      // corner announces it here.
      return Action::stay(Light::kCorner);

    case Role::kSide: {
      const auto gate = containing_hull_edge(view);
      if (!gate) return Action::stay(Light::kSide);
      const auto target = side_popout_target(view, *gate);
      if (!target) return Action::stay(Light::kSide);
      const double displacement = geom::distance(view.self(), *target);
      if (mover_within(view, guard_factor_ * displacement)) {
        return Action::stay(Light::kSide);
      }
      return Action::move_to(*target, Light::kMoving);
    }

    case Role::kInterior: {
      // The beacon protocol, three lights deep:
      //   kInterior -> kTransit : ANNOUNCE a concrete exit plan (stationary).
      //   kTransit  -> kMoving  : FLY, but only after the arbitration below.
      //   kMoving interior      : the landing slot got absorbed by a
      //                           concurrent insertion; restart the protocol.
      //
      // Arbitration (run by a kTransit robot at its move-Look): against
      // every visible robot with an intent/flight light whose modelled exit
      // path comes within the safety margin of mine,
      //   - kMoving rivals win unconditionally (they are already flying);
      //   - kTransit rivals are ordered by remaining exit distance (a total
      //     order, so no deferral cycles): strictly shorter exit flies,
      //     the other keeps kTransit and re-arbitrates next cycle.
      // Because a robot's kTransit commit precedes its move-Look, two
      // conflicting robots can never both reach flight unseen: at least one
      // of them arbitrates with the other's light visible.
      // One gate table and one plans buffer serve the observer's planning
      // and every rival modelled below.
      const std::vector<GateFrame> frames = gate_frames(view);
      std::vector<ExitPlan> plans;
      auto plan = first_clear_plan(view, frames, 0, plans);
      const bool fallback = !plan.has_value();
      if (fallback) plan = fallback_plan(view);
      if (!plan) {
        // No eligible gate right now (or all corridors blocked): withdraw
        // any stale intent so rivals stop yielding to it.
        return Action::stay(Light::kInterior);
      }
      if (snap.self_light != Light::kTransit) {
        return Action::stay(Light::kTransit);  // Announce.
      }

      if (fallback) {
        // Diagonal fallback flights are invisible to rivals' path models,
        // so they run under global exclusivity: yield to every flight, and
        // among intents fly only as the robot strictly closest to the hull
        // boundary (a shared, frame-invariant total order).
        const double own = hull_edge_distance(view, view.self());
        for (std::size_t i = 1; i < view.pts.size(); ++i) {
          if (view.lights[i] == Light::kMoving) return Action::stay(Light::kTransit);
          if (view.lights[i] == Light::kTransit &&
              hull_edge_distance(view, view.pts[i]) <= own) {
            return Action::stay(Light::kTransit);
          }
        }
        return Action::move_to(plan->target, Light::kMoving);
      }

      const geom::Segment my_path{view.self(), plan->target};
      // Sound prefilter: a rival's exit path never leaves the disk of
      // radius (distance to its nearest hull edge + 0.25 * longest edge)
      // around the rival, so rivals farther than that from my path cannot
      // conflict — skip the expensive plan modelling for them.
      double longest_edge = 0.0;
      for (std::size_t k = 0; k < view.hull.size(); ++k) {
        longest_edge = std::max(
            longest_edge,
            geom::distance(view.pts[view.hull[k]],
                           view.pts[view.hull[(k + 1) % view.hull.size()]]));
      }
      const Vec2 centre = hull_vertex_mean(view);
      for (std::size_t i = 1; i < view.pts.size(); ++i) {
        const Light light = view.lights[i];
        if (light != Light::kTransit && light != Light::kMoving) continue;
        const Vec2 rival = view.pts[i];
        const double gap = geom::point_segment_distance(my_path, rival);
        // Skip iff out_of_reach(exact edge distance). Rounded addition is
        // monotone, so out_of_reach falls as its argument grows: a rival
        // that 0 (a lower bound) cannot skip is never skipped, and one that
        // the O(log h) upper bound skips is always skipped; only the rest
        // pay for the exact O(h) minimum.
        const auto out_of_reach = [&](double edge_distance) {
          return gap > edge_distance + 0.25 * longest_edge + 0.1 * plan->exit_distance;
        };
        if (out_of_reach(0.0) &&
            (out_of_reach(hull_edge_distance_bound(view, centre, rival)) ||
             out_of_reach(hull_edge_distance(view, rival)))) {
          continue;
        }
        // A robot in flight close to my intended path is a hazard no matter
        // what its (unknowable) destination is — yield on position alone.
        const double hazard = 0.03 * plan->exit_distance;
        if (light == Light::kMoving &&
            geom::point_segment_distance_within(my_path, rival, hazard) <= hazard) {
          return Action::stay(Light::kTransit);
        }
        // Model the rival with the SAME planner the rival itself runs, so
        // both parties arbitrate on (approximately) the same two paths.
        const auto rival_plan = first_clear_plan(view, frames, i, plans);
        geom::Segment rival_path{rival, rival};
        double rival_exit = 0.0;
        if (rival_plan) {
          rival_path = geom::Segment{rival, rival_plan->target};
          rival_exit = rival_plan->exit_distance;
        }
        const double margin =
            kConflictMargin *
            std::min(plan->exit_distance,
                     rival_exit > 0.0 ? rival_exit : plan->exit_distance);
        if (geom::segment_segment_distance(my_path, rival_path) > margin) {
          continue;
        }
        if (light == Light::kMoving) {
          return Action::stay(Light::kTransit);  // Yield to flights.
        }
        if (rival_exit <= 0.0) {
          // Un-modellable stationary intent near my path (likely a fallback
          // candidate): WITHDRAW rather than hold intent, so the fallback's
          // global-exclusivity count drops and it can proceed.
          return Action::stay(Light::kInterior);
        }
        if (rival_exit <= plan->exit_distance) {
          // Shorter exit flies first; on exact ties both yield until the
          // landscape changes.
          return Action::stay(Light::kTransit);
        }
      }
      return Action::move_to(plan->target, Light::kMoving);
    }
  }
  return Action::stay(snap.self_light);
}

std::span<const model::Light> CompleteVisibilityAsync::palette() const noexcept {
  return model::kAllLights;
}

}  // namespace lumen::core
