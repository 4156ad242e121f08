// Beacon-insertion geometry tests: targets must land strictly outside the
// gate, keep every existing hull vertex a strict corner, give distinct
// movers distinct targets, and the special-case moves (side pop-out, line
// escape) must respect their own invariants.
#include "core/beacon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "hull_oracle.hpp"
#include "geom/predicates.hpp"
#include "model/snapshot.hpp"
#include "util/prng.hpp"

namespace lumen::core {
namespace {

using geom::Vec2;
using model::Light;

/// Owns the snapshot the LocalView's spans alias: build_view borrows the
/// snapshot arrays instead of copying them, so the snapshot must outlive
/// the view. Vector moves keep heap buffers, so returning by value is safe.
struct OwnedView : LocalView {
  model::Snapshot snap;
};

OwnedView view_of(const std::vector<Vec2>& world, std::size_t observer) {
  const model::LocalFrame frame{world[observer], 0.0, 1.0, false};
  OwnedView v;
  v.snap = model::build_snapshot(
      world, std::vector<Light>(world.size(), Light::kOff), observer, frame);
  static_cast<LocalView&>(v) = build_view(v.snap);
  return v;
}

TEST(InteriorInsertion, TargetOutsideGateKeepsHullStrict) {
  // Square with the observer inside near the bottom edge.
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kInterior);
  const auto gate = nearest_hull_edge(view);
  ASSERT_TRUE(gate.has_value());
  const auto target = interior_insertion_target(view, *gate);
  ASSERT_TRUE(target.has_value());
  // Strictly outside the edge (below y = -2 in local frame).
  EXPECT_LT(target->y, -2.0);
  // Inserting the WORLD-mapped target keeps everyone a strict corner.
  std::vector<Vec2> new_world = {world[1], world[2], world[3], world[4]};
  new_world.push_back(world[0] + *target);  // Identity frame: local == offset.
  EXPECT_TRUE(geom::points_in_strictly_convex_position(new_world));
}

TEST(InteriorInsertion, RandomizedConvexityPreservation) {
  // Property sweep: for random interior observers in random convex worlds,
  // the insertion target extends the hull strictly.
  util::Prng rng{71};
  int tested = 0;
  for (int iter = 0; iter < 300 && tested < 120; ++iter) {
    const auto world =
        gen::generate(gen::ConfigFamily::kUniformDisk, 12,
                      1000 + static_cast<std::uint64_t>(iter));
    const auto hull = geom::convex_hull_indices(world);
    // Pick an interior robot if any.
    std::size_t interior = world.size();
    for (std::size_t i = 0; i < world.size(); ++i) {
      if (std::find(hull.begin(), hull.end(), i) == hull.end()) {
        interior = i;
        break;
      }
    }
    if (interior == world.size()) continue;
    const auto view = view_of(world, interior);
    if (view.role != Role::kInterior) continue;
    const auto gate = nearest_hull_edge(view);
    if (!gate) continue;
    const auto target = interior_insertion_target(view, *gate);
    ASSERT_TRUE(target.has_value());
    ++tested;
    // The target is strictly outside the local hull.
    const auto hull_pts = hull_points(view);
    EXPECT_EQ(geom::classify_against_hull(hull_pts, *target),
              geom::HullPosition::kOutside)
        << "iter " << iter;
    // Every previous hull vertex remains a strict vertex after insertion.
    std::vector<Vec2> extended = hull_pts;
    extended.push_back(*target);
    const auto new_hull = geom::convex_hull_indices(extended);
    EXPECT_EQ(new_hull.size(), extended.size()) << "iter " << iter;
  }
  EXPECT_GE(tested, 50);
}

TEST(InteriorInsertion, DistinctMoversGetDistinctTargets) {
  // Two observers near the same edge with different projections.
  const std::vector<Vec2> base = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  util::Prng rng{5};
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<Vec2> world_a = base;
    std::vector<Vec2> world_b = base;
    const Vec2 pa{rng.uniform(1, 9), rng.uniform(0.5, 3)};
    Vec2 pb{rng.uniform(1, 9), rng.uniform(0.5, 3)};
    if (pa.x == pb.x) pb.x += 0.25;
    world_a.insert(world_a.begin(), pa);
    world_b.insert(world_b.begin(), pb);
    const auto va = view_of(world_a, 0);
    const auto vb = view_of(world_b, 0);
    const auto ga = nearest_hull_edge(va);
    const auto gb = nearest_hull_edge(vb);
    if (!ga || !gb) continue;
    const auto ta = interior_insertion_target(va, *ga);
    const auto tb = interior_insertion_target(vb, *gb);
    if (!ta || !tb) continue;
    // Map to world (identity frames centered at the observers).
    const Vec2 wa = pa + *ta;
    const Vec2 wb = pb + *tb;
    EXPECT_GT(geom::distance(wa, wb), 1e-9) << "iter " << iter;
  }
}

TEST(InteriorInsertion, ProjectionsBeyondEdgeEndsStillDistinct) {
  // The regression behind the identical-target collision: observers whose
  // feet fall BEYOND the same edge end must not collapse onto one target.
  const std::vector<Vec2> base = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  std::vector<Vec2> world_a = base;
  std::vector<Vec2> world_b = base;
  // Both observers project beyond x=4 relative to the bottom edge... their
  // nearest edge is the right one, so craft feet beyond y-ends instead:
  // use points near the bottom-left, projecting beyond x=0.
  world_a.insert(world_a.begin(), Vec2{0.4, 0.3});
  world_b.insert(world_b.begin(), Vec2{0.2, 0.35});
  const auto va = view_of(world_a, 0);
  const auto vb = view_of(world_b, 0);
  const auto ga = nearest_hull_edge(va);
  const auto gb = nearest_hull_edge(vb);
  ASSERT_TRUE(ga && gb);
  const auto ta = interior_insertion_target(va, *ga);
  const auto tb = interior_insertion_target(vb, *gb);
  ASSERT_TRUE(ta && tb);
  const Vec2 wa = Vec2{0.4, 0.3} + *ta;
  const Vec2 wb = Vec2{0.2, 0.35} + *tb;
  EXPECT_GT(geom::distance(wa, wb), 1e-6);
}

TEST(SidePopout, PerpendicularAndOutward) {
  const std::vector<Vec2> world = {{4, 0}, {0, 0}, {8, 0}, {4, 8}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kSide);
  const auto edge = containing_hull_edge(view);
  ASSERT_TRUE(edge.has_value());
  const auto target = side_popout_target(view, *edge);
  ASSERT_TRUE(target.has_value());
  // All other robots have y >= 0 locally; outward is negative y.
  EXPECT_LT(target->y, 0.0);
  // Perpendicular: x unchanged.
  EXPECT_NEAR(target->x, 0.0, 1e-12);
  // Popping out puts the whole configuration in strictly convex position.
  std::vector<Vec2> popped = {world[1], world[2], world[3], world[0] + *target};
  EXPECT_TRUE(geom::points_in_strictly_convex_position(popped));
}

TEST(SidePopout, TwoPoppersSameEdgeParallelPaths) {
  const std::vector<Vec2> world_a = {{3, 0}, {0, 0}, {9, 0}, {4, 9}, {6, 0}};
  const std::vector<Vec2> world_b = {{6, 0}, {0, 0}, {9, 0}, {4, 9}, {3, 0}};
  const auto va = view_of(world_a, 0);
  const auto vb = view_of(world_b, 0);
  ASSERT_EQ(va.role, Role::kSide);
  ASSERT_EQ(vb.role, Role::kSide);
  const auto ea = containing_hull_edge(va);
  const auto eb = containing_hull_edge(vb);
  ASSERT_TRUE(ea && eb);
  const auto ta = side_popout_target(va, *ea);
  const auto tb = side_popout_target(vb, *eb);
  ASSERT_TRUE(ta && tb);
  // Both pop perpendicular (x unchanged in their local frames): paths are
  // parallel segments at distinct world x -> can never cross.
  EXPECT_NEAR(ta->x, 0.0, 1e-12);
  EXPECT_NEAR(tb->x, 0.0, 1e-12);
  EXPECT_LT(ta->y, 0.0);
  EXPECT_LT(tb->y, 0.0);
}

TEST(LineEscape, PerpendicularByQuarterOfNearestDistance) {
  std::vector<Vec2> world;
  for (int i = 0; i < 5; ++i) world.push_back({static_cast<double>(2 * i), 0.0});
  const auto view = view_of(world, 2);
  ASSERT_EQ(view.role, Role::kLine);
  const Vec2 target = line_escape_target(view);
  // Nearest visible robot is at distance 2; escape by 0.5 perpendicular.
  EXPECT_NEAR(std::fabs(target.y), 0.5, 1e-12);
  EXPECT_NEAR(target.x, 0.0, 1e-12);
}

TEST(LineEscape, AloneStaysPut) {
  const std::vector<Vec2> pts = {Vec2{}};
  const std::vector<Light> lights = {Light::kOff};
  LocalView view;
  view.pts = pts;
  view.lights = lights;
  EXPECT_EQ(line_escape_target(view), (Vec2{}));
}

TEST(PlanExits, PerpendicularPlansNearestFirstWithValidFeet) {
  // Square of Corner-lit anchors, observer near the bottom edge.
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  std::vector<Light> lights(world.size(), Light::kCorner);
  lights[0] = Light::kInterior;
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = model::build_snapshot(world, lights, 0, frame);
  const auto view = build_view(snap);
  const auto plans = plan_exits(view, view.self());
  ASSERT_FALSE(plans.empty());
  // Nearest-first ordering.
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].gate.distance, plans[i].gate.distance);
  }
  // The first plan is the bottom edge; its target sits on the observer's
  // own column (perpendicular approach), strictly outside.
  const auto& best = plans.front();
  EXPECT_NEAR(best.gate.distance, 2.0, 1e-9);
  EXPECT_NEAR(best.target.x, 0.0, 1e-9);
  EXPECT_LT(best.target.y, -2.0);
  EXPECT_NEAR(best.exit_distance, geom::distance(view.self(), best.target), 1e-12);
}

TEST(PlanExits, RequiresCornerLitAnchors) {
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = model::build_snapshot(
      world, std::vector<Light>(world.size(), Light::kOff), 0, frame);
  const auto view = build_view(snap);
  EXPECT_TRUE(plan_exits(view, view.self()).empty());
}

TEST(PlanExits, FootOutsideBandSkipsThatEdge) {
  // Observer in the notch outside the central band of the bottom edge: its
  // projection onto the bottom edge is at t = 0.02 (below 0.08), so the
  // bottom edge must NOT appear among its plans.
  const std::vector<Vec2> world = {{0.2, 1.5}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  std::vector<Light> lights(world.size(), Light::kCorner);
  lights[0] = Light::kInterior;
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = model::build_snapshot(world, lights, 0, frame);
  const auto view = build_view(snap);
  for (const auto& plan : plan_exits(view, view.self())) {
    // Local frame: the bottom edge lies at y == -1.5.
    const bool is_bottom =
        std::fabs(plan.gate.c1.y + 1.5) < 1e-9 && std::fabs(plan.gate.c2.y + 1.5) < 1e-9;
    EXPECT_FALSE(is_bottom);
  }
}

TEST(PlanExits, TargetsExtendHullStrictly) {
  // Property sweep mirroring the diagonal test, for perpendicular plans.
  int tested = 0;
  for (int iter = 0; iter < 200 && tested < 80; ++iter) {
    const auto world = gen::generate(gen::ConfigFamily::kUniformDisk, 14,
                                     5000 + static_cast<std::uint64_t>(iter));
    const auto hull = geom::convex_hull_indices(world);
    std::size_t interior = world.size();
    for (std::size_t i = 0; i < world.size(); ++i) {
      if (std::find(hull.begin(), hull.end(), i) == hull.end()) {
        interior = i;
        break;
      }
    }
    if (interior == world.size()) continue;
    std::vector<Light> lights(world.size(), Light::kCorner);
    lights[interior] = Light::kInterior;
    const model::LocalFrame frame{world[interior], 0.0, 1.0, false};
    const auto snap = model::build_snapshot(world, lights, interior, frame);
    const auto view = build_view(snap);
    if (view.role != Role::kInterior) continue;
    for (const auto& plan : plan_exits(view, view.self())) {
      ++tested;
      std::vector<Vec2> extended = hull_points(view);
      extended.push_back(plan.target);
      EXPECT_EQ(geom::convex_hull_indices(extended).size(), extended.size())
          << "iter " << iter;
    }
  }
  EXPECT_GE(tested, 40);
}

// The per-call exit formula plan_exits used before the gate table: every
// quantity re-derived from the gate on each call. Kept as the oracle the
// table must match double for double.
double oracle_tri(Vec2 a, Vec2 b, Vec2 c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

double oracle_wedge_bound(Vec2 u, Vec2 v, Vec2 base, Vec2 n) {
  const double a0 = oracle_tri(u, v, base);
  const double slope = oracle_tri(u, v, base + n) - a0;
  if (slope >= 0.0) return std::numeric_limits<double>::infinity();
  if (a0 <= 0.0) return 0.0;
  return a0 / -slope;
}

double oracle_wedge_capped_height(const LocalView& view, const GateEdge& gate,
                                  Vec2 base, Vec2 n, double len) {
  double h_wedge = std::numeric_limits<double>::infinity();
  const std::size_t h = view.hull.size();
  if (h >= 3) {
    const Vec2 c0 = view.pts[view.hull[(gate.k + h - 1) % h]];
    const Vec2 c3 = view.pts[view.hull[(gate.k + 2) % h]];
    h_wedge = std::min(h_wedge, oracle_wedge_bound(c0, gate.c1, base, n));
    h_wedge = std::min(h_wedge, oracle_wedge_bound(gate.c2, c3, base, n));
  }
  double h_cap = 0.25 * len;
  if (std::isfinite(h_wedge)) h_cap = std::min(h_cap, 0.45 * h_wedge);
  if (h_cap <= len * 1e-12) h_cap = 0.05 * len;
  return h_cap;
}

std::optional<Vec2> oracle_perpendicular_target(const LocalView& view,
                                                const GateEdge& gate, Vec2 from,
                                                Vec2 interior_witness) {
  const Vec2 d = gate.c2 - gate.c1;
  const double len = geom::norm(d);
  if (len <= 0.0) return std::nullopt;
  const Vec2 u = d / len;
  Vec2 n{u.y, -u.x};
  if (geom::dot(n, interior_witness - gate.c1) > 0.0) n = -n;
  const double t_raw = geom::dot(from - gate.c1, u) / len;
  if (t_raw < 0.08 || t_raw > 0.92) return std::nullopt;
  const Vec2 base = gate.c1 + u * (t_raw * len);
  const double height =
      oracle_wedge_capped_height(view, gate, base, n, len) * (0.4 + 0.5 * t_raw);
  return base + n * height;
}

std::vector<ExitPlan> oracle_plan_exits(const LocalView& view, Vec2 from) {
  std::vector<ExitPlan> plans;
  const std::size_t h = view.hull.size();
  if (h < 3) return plans;
  const Vec2 witness = hull_vertex_mean(view);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (i1 == 0 || i2 == 0 || view.lights[i1] != Light::kCorner ||
        view.lights[i2] != Light::kCorner) {
      continue;
    }
    GateEdge gate{i1, i2, view.pts[i1], view.pts[i2], 0.0, k};
    const auto target = oracle_perpendicular_target(view, gate, from, witness);
    if (!target) continue;
    gate.distance = geom::point_segment_distance({gate.c1, gate.c2}, from);
    plans.push_back(ExitPlan{gate, *target, geom::distance(from, *target)});
  }
  std::sort(plans.begin(), plans.end(), [](const ExitPlan& a, const ExitPlan& b) {
    return a.gate.distance < b.gate.distance;
  });
  return plans;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(PlanExits, GateTableMatchesPerCallFormula) {
  // The observer and every robot it might model as a rival plan from one
  // gate table and one reused plans buffer; each plan must carry the very
  // doubles the per-call formula computes.
  util::Prng rng{8};
  int compared = 0;
  int plans_seen = 0;
  for (const auto family : {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kRingWithCore,
                            gen::ConfigFamily::kMultiCluster, gen::ConfigFamily::kGrid}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto world = gen::generate(family, 36, seed);
      std::vector<Light> lights(world.size());
      for (auto& light : lights) {
        light = rng.next_below(5) == 0 ? Light::kTransit : Light::kCorner;
      }
      for (std::size_t i = 0; i < world.size(); ++i) {
        const auto frame = model::LocalFrame::random(world[i], rng);
        const auto snap = model::build_snapshot(world, lights, i, frame);
        const auto view = build_view(snap);
        if (view.role != Role::kInterior) continue;
        const auto frames = gate_frames(view);
        std::vector<ExitPlan> plans;
        // Every visible robot as the mover, and points off the robots.
        std::vector<Vec2> movers(view.pts.begin(), view.pts.end());
        movers.push_back(Vec2{rng.uniform(-50, 50), rng.uniform(-50, 50)});
        for (const Vec2 from : movers) {
          plan_exits(view, frames, from, plans);
          const auto expected = oracle_plan_exits(view, from);
          ASSERT_EQ(plans.size(), expected.size());
          for (std::size_t k = 0; k < plans.size(); ++k) {
            const ExitPlan& got = plans[k];
            const ExitPlan& want = expected[k];
            EXPECT_EQ(got.gate.i1, want.gate.i1);
            EXPECT_EQ(got.gate.i2, want.gate.i2);
            EXPECT_EQ(got.gate.k, want.gate.k);
            EXPECT_TRUE(same_bits(got.gate.distance, want.gate.distance));
            EXPECT_TRUE(same_bits(got.target.x, want.target.x));
            EXPECT_TRUE(same_bits(got.target.y, want.target.y));
            EXPECT_TRUE(same_bits(got.exit_distance, want.exit_distance));
          }
          const auto wrapped = plan_exits(view, from);
          ASSERT_EQ(wrapped.size(), expected.size());
          for (std::size_t k = 0; k < wrapped.size(); ++k) {
            EXPECT_TRUE(same_bits(wrapped[k].target.x, expected[k].target.x));
            EXPECT_TRUE(same_bits(wrapped[k].target.y, expected[k].target.y));
          }
          ++compared;
          plans_seen += static_cast<int>(plans.size());
        }
      }
    }
  }
  EXPECT_GE(compared, 300);
  EXPECT_GE(plans_seen, 300);
}

TEST(InteriorInsertion, DegenerateGateRejected) {
  const std::vector<Vec2> pts = {Vec2{}, Vec2{1, 1}, Vec2{1, 1}};
  const std::vector<Light> lights = {Light::kOff, Light::kCorner,
                                     Light::kCorner};
  LocalView view;
  view.pts = pts;
  view.lights = lights;
  const GateEdge gate{1, 2, {1, 1}, {1, 1}, 0.0};
  EXPECT_FALSE(interior_insertion_target(view, gate).has_value());
  EXPECT_FALSE(side_popout_target(view, gate).has_value());
}

}  // namespace
}  // namespace lumen::core
