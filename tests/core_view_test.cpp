// LocalView tests: the classification soundness lemma (local role == global
// role under obstructed visibility), the O(m) corner test against the exact
// hull, gate selection, and the hull-edge distance and its upper bound.
#include "core/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "geom/segment.hpp"
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

/// Builds the observer's view of a world configuration with an identity
/// robot-centered frame and given lights.
OwnedView view_of(const std::vector<Vec2>& world, const std::vector<Light>& lights,
                  std::size_t observer) {
  const model::LocalFrame frame{world[observer], 0.0, 1.0, false};
  OwnedView v;
  v.snap = model::build_snapshot(world, lights, observer, frame);
  static_cast<LocalView&>(v) = build_view(v.snap);
  return v;
}

OwnedView view_of(const std::vector<Vec2>& world, std::size_t observer) {
  return view_of(world, std::vector<Light>(world.size(), Light::kOff), observer);
}

/// A view of hand-placed LOCAL points: the observer at the origin, then
/// `others` in order, with no frame or visibility in between.
OwnedView local_view(const std::vector<Vec2>& others) {
  OwnedView v;
  v.snap.reset(Light::kOff);
  for (const Vec2 p : others) v.snap.push_visible(p, Light::kCorner);
  static_cast<LocalView&>(v) = build_view(v.snap);
  return v;
}

bool is_line_role(Role r) {
  return r == Role::kAlone || r == Role::kLine || r == Role::kLineEnd;
}

/// The corner test's contract against the exact hull of the same points:
/// kCorner iff index 0 is a strict hull vertex, and every non-corner view
/// carries exactly that hull. Line roles are decided before either.
void expect_matches_exact_hull(const LocalView& view, const std::string& what) {
  if (is_line_role(view.role)) return;
  const auto hull = geom::convex_hull_indices(view.pts);
  const bool vertex = std::find(hull.begin(), hull.end(), std::size_t{0}) != hull.end();
  EXPECT_EQ(view.role == Role::kCorner, vertex) << what;
  if (view.role == Role::kCorner) {
    EXPECT_TRUE(view.hull.empty()) << what;
  } else {
    EXPECT_EQ(view.hull, hull) << what;
  }
}

TEST(BuildView, AloneAndPair) {
  EXPECT_EQ(view_of({{5, 5}}, 0).role, Role::kAlone);
  // Two robots: each sees one point -> a "line" with self extreme.
  EXPECT_EQ(view_of({{0, 0}, {3, 0}}, 0).role, Role::kLineEnd);
}

TEST(BuildView, TriangleAllCorners) {
  const std::vector<Vec2> world = {{0, 0}, {4, 0}, {2, 3}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view_of(world, i).role, Role::kCorner) << i;
  }
}

TEST(BuildView, InteriorRobotClassifiesInterior) {
  const std::vector<Vec2> world = {{0, 0}, {8, 0}, {4, 8}, {4, 2.5}};
  EXPECT_EQ(view_of(world, 3).role, Role::kInterior);
  EXPECT_EQ(view_of(world, 0).role, Role::kCorner);
}

TEST(BuildView, SideRobotOnHullEdge) {
  const std::vector<Vec2> world = {{0, 0}, {8, 0}, {4, 8}, {4, 0}};
  EXPECT_EQ(view_of(world, 3).role, Role::kSide);
}

TEST(BuildView, LineRolesOnExactLine) {
  std::vector<Vec2> world;
  for (int i = 0; i < 7; ++i) world.push_back({static_cast<double>(i), 0.0});
  EXPECT_EQ(view_of(world, 0).role, Role::kLineEnd);
  EXPECT_EQ(view_of(world, 6).role, Role::kLineEnd);
  for (std::size_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(view_of(world, i).role, Role::kLine) << i;
  }
}

TEST(BuildView, LineRoleSurvivesRandomFrames) {
  // The tolerant nearly-collinear test must hold under similarity frames.
  std::vector<Vec2> world;
  for (int i = 0; i < 9; ++i) world.push_back({1.7 * i, -0.3 * 1.7 * i});
  const std::vector<Light> lights(world.size(), Light::kOff);
  util::Prng rng{5};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t observer = 1 + rng.next_below(7);
    const auto frame = model::LocalFrame::random(world[observer], rng);
    const auto snap = model::build_snapshot(world, lights, observer, frame);
    const auto view = build_view(snap);
    EXPECT_EQ(view.role, Role::kLine) << "trial " << trial;
  }
}

TEST(CornerTest, OppositePointsThroughTheOrigin) {
  // Exactly opposite as the first two points (a one-ray cone) ...
  auto v = local_view({{1, 0}, {-1, 0}, {0, 1}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "opposite first");
  // ... and opposite the right ray of an already open cone.
  v = local_view({{1, 1}, {0, 1}, {-1, -1}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "opposite after widening");
  v = local_view({{0, 1}, {1, 1}, {-2, -2}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "opposite the left ray");
}

TEST(CornerTest, SeveralPointsOnOneRay) {
  auto v = local_view({{1, 0}, {2, 0}, {3, 0}, {0, 1}});
  EXPECT_EQ(v.role, Role::kCorner);
  expect_matches_exact_hull(v, "ray then widen");
  v = local_view({{1, 1}, {2, 2}, {3, 3}, {1, 0}, {4, 4}});
  EXPECT_EQ(v.role, Role::kCorner);
  expect_matches_exact_hull(v, "ray, widen, ray again");
  v = local_view({{1, 1}, {2, 2}, {-0.5, -0.5}, {1, 0}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "ray and its opposite");
  v = local_view({{1, 0}, {2, 0}, {-3, 0}, {0, 1}, {0, 2}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "two opposite rays");
}

TEST(CornerTest, OriginOnAHullEdge) {
  auto v = local_view({{-1, 0}, {1, 0}, {1, 2}, {-1, 2}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "bottom edge midpoint");
  // The cone closes to exactly pi only at the last point.
  v = local_view({{1, 2}, {-1, 2}, {1, 0}, {-3, 0}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "edge found last");
}

TEST(CornerTest, PointThatRoundsOntoTheOrigin) {
  // A distinct world point whose local image underflows to the origin: the
  // corner test skips it, as the hull drops it as a duplicate of index 0.
  const model::LocalFrame frame{{0, 0}, 0.0, 0.25, false};
  const Vec2 tiny = frame.to_local({std::numeric_limits<double>::denorm_min(), 0.0});
  ASSERT_EQ(tiny, (Vec2{}));
  auto v = local_view({tiny, {1, 0}, {0, 1}});
  EXPECT_EQ(v.role, Role::kCorner);
  expect_matches_exact_hull(v, "duplicate at a corner");
  v = local_view({{1, 0}, Vec2{-0.0, 0.0}, {0, 1}, {-1, 0}});
  EXPECT_EQ(v.role, Role::kSide);
  expect_matches_exact_hull(v, "negative-zero duplicate on an edge");
  v = local_view({{1, 0}, {0, 1}, tiny, {-1, -1}, {0, 0}});
  EXPECT_EQ(v.role, Role::kInterior);
  expect_matches_exact_hull(v, "duplicates inside");
}

TEST(CornerTest, NearlyCollinearViews) {
  // Genuinely 2-D, but only just: offsets far above nearly_collinear's
  // tolerance and far below the coordinates, so orientations rest on the
  // exact stage of orient2d.
  util::Prng rng{11};
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const double offset = trial % 2 == 0 ? 1e-7 : 3e-9;
    const Vec2 dir{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<Vec2> others;
    const std::size_t m = 2 + rng.next_below(6);
    for (std::size_t k = 0; k < m; ++k) {
      const double t = rng.uniform(-3, 3);
      const double side = rng.uniform(-1, 1) < 0 ? -offset : offset;
      others.push_back(dir * t + geom::perp(dir) * (side * rng.uniform(0, 1)));
    }
    const auto v = local_view(others);
    expect_matches_exact_hull(v, "trial " + std::to_string(trial));
    checked += is_line_role(v.role) ? 0 : 1;
  }
  EXPECT_GE(checked, 200);
}

TEST(CornerTest, SmallLatticeViews) {
  // Lattice points make exact collinearity, opposite pairs and duplicates of
  // the origin common — the cases where an inexact test would slip.
  util::Prng rng{3};
  int corners = 0;
  int others_seen = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<Vec2> others;
    const std::size_t m = 2 + rng.next_below(6);
    for (std::size_t k = 0; k < m; ++k) {
      others.push_back({static_cast<double>(rng.next_below(5)) - 2.0,
                        static_cast<double>(rng.next_below(5)) - 2.0});
    }
    const auto v = local_view(others);
    expect_matches_exact_hull(v, "trial " + std::to_string(trial));
    if (v.role == Role::kCorner) ++corners;
    if (v.role == Role::kSide || v.role == Role::kInterior) ++others_seen;
  }
  EXPECT_GE(corners, 300);
  EXPECT_GE(others_seen, 300);
}

TEST(CornerTest, RandomViewsUnderRandomFrames) {
  util::Prng rng{17};
  int corners = 0;
  int others_seen = 0;
  for (const auto family : {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kGrid,
                            gen::ConfigFamily::kRingWithCore,
                            gen::ConfigFamily::kDenseDiameter}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto world = gen::generate(family, 48, seed);
      const std::vector<Light> lights(world.size(), Light::kOff);
      for (std::size_t i = 0; i < world.size(); ++i) {
        const auto frame = model::LocalFrame::random(world[i], rng);
        const auto snap = model::build_snapshot(world, lights, i, frame);
        const auto view = build_view(snap);
        expect_matches_exact_hull(view, "robot " + std::to_string(i));
        if (view.role == Role::kCorner) ++corners;
        if (view.role == Role::kSide || view.role == Role::kInterior) ++others_seen;
      }
    }
  }
  EXPECT_GE(corners, 100);
  EXPECT_GE(others_seen, 100);
}

TEST(CornerTest, SweepOrderedViews) {
  // build_snapshot hands the view its points in the Look's angular sweep
  // order, the order in which the corner test's cone would widen at almost
  // every point. Views this large take the stride sample and the certified
  // block skips; the answer must still be the exact hull's.
  util::Prng rng{23};
  int corners = 0;
  int others_seen = 0;
  for (const auto family : {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kRingWithCore,
                            gen::ConfigFamily::kGaussianBlob,
                            gen::ConfigFamily::kNearCollinear}) {
    for (const std::size_t n : {std::size_t{70}, std::size_t{203}}) {
      const auto world = gen::generate(family, n, 100 + n);
      const std::vector<Light> lights(world.size(), Light::kOff);
      for (std::size_t i = 0; i < world.size(); ++i) {
        const auto frame = model::LocalFrame::random(world[i], rng);
        const auto snap = model::build_snapshot(world, lights, i, frame);
        const auto view = build_view(snap);
        expect_matches_exact_hull(view, std::string(gen::to_string(family)) + " robot " +
                                            std::to_string(i));
        if (view.role == Role::kCorner) ++corners;
        if (view.role == Role::kSide || view.role == Role::kInterior) ++others_seen;
      }
    }
  }
  EXPECT_GE(corners, 100);
  EXPECT_GE(others_seen, 100);
}

TEST(CornerTest, OnlyEscapeInTailBlock) {
  // Every point in the open upper half-plane but one, which sits below the
  // origin near the end of the view: outside the stride sample, and in the
  // partial block a vector scan leaves to its scalar tail for some sizes.
  // Stepping it is the only way to see the origin is not a vertex.
  util::Prng rng{41};
  int checked = 0;
  for (std::size_t m = 20; m <= 90; ++m) {
    const std::size_t stride = std::max<std::size_t>(1, (m - 1) / 16);
    for (const std::size_t escape : {m - 2, m - 3, m - 4}) {
      if ((escape - 1) % stride == 0) continue;  // Sampled: not the case here.
      std::vector<Vec2> others;
      for (std::size_t k = 1; k < m; ++k) {
        others.push_back(k == escape ? Vec2{rng.uniform(-0.1, 0.1), -1.0}
                                     : Vec2{rng.uniform(-1, 1), rng.uniform(1, 2)});
      }
      const auto v = local_view(others);
      EXPECT_NE(v.role, Role::kCorner) << "m=" << m << " escape=" << escape;
      expect_matches_exact_hull(v, "m=" + std::to_string(m));
      // Without the escape the origin is a corner.
      others[escape - 1] = Vec2{0.0, 1.5};
      EXPECT_EQ(local_view(others).role, Role::kCorner) << "m=" << m;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100);
}

TEST(CornerTest, OppositePointOutsideTheSampleOfAOneRayCone) {
  // The stride sample sees only points on one ray, so the full pass starts
  // from a one-ray cone; the point opposite that ray shares the first
  // blocks with points on the ray, before the points that open the cone.
  // A one-ray cone certifies nothing, so that point is stepped and refutes
  // the corner.
  for (std::size_t m = 40; m <= 72; ++m) {
    const std::size_t stride = std::max<std::size_t>(1, (m - 1) / 16);
    std::vector<Vec2> others;
    for (std::size_t k = 1; k < m; ++k) {
      const double d = static_cast<double>(k);
      if (k == 2) {
        others.push_back({-4.0, -8.0});  // Exactly opposite the ray.
      } else if (k <= 8 || (k - 1) % stride == 0 || k == m - 1) {
        others.push_back({d, 2.0 * d});  // On the ray through (1, 2).
      } else {
        others.push_back({d, 2.0 * d + 1.0});  // Opens the cone.
      }
    }
    const auto v = local_view(others);
    EXPECT_NE(v.role, Role::kCorner) << "m=" << m;
    expect_matches_exact_hull(v, "m=" + std::to_string(m));
  }
}

// The classification soundness lemma: despite obstruction, a robot's LOCAL
// role against its visible set equals its GLOBAL role against all robots.
class ClassificationSoundness
    : public ::testing::TestWithParam<std::tuple<gen::ConfigFamily, std::size_t>> {};

TEST_P(ClassificationSoundness, LocalRoleMatchesGlobalRole) {
  const auto [family, n] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto world = gen::generate(family, n, seed);
    const auto global_hull = geom::convex_hull_indices(world);
    const bool world_line = geom::all_collinear(world);
    const auto hull_pts = [&] {
      std::vector<Vec2> pts;
      for (const auto i : global_hull) pts.push_back(world[i]);
      return pts;
    }();
    for (std::size_t i = 0; i < world.size(); ++i) {
      const Role local = view_of(world, i).role;
      if (world_line) {
        EXPECT_TRUE(local == Role::kLine || local == Role::kLineEnd) << i;
        continue;
      }
      const auto global_pos = geom::classify_against_hull(hull_pts, world[i]);
      switch (global_pos) {
        case geom::HullPosition::kVertex:
          EXPECT_EQ(local, Role::kCorner) << "robot " << i << " seed " << seed;
          break;
        case geom::HullPosition::kEdge:
          EXPECT_EQ(local, Role::kSide) << "robot " << i << " seed " << seed;
          break;
        case geom::HullPosition::kInterior:
          // Tolerant line classification may fire for nearly-degenerate
          // local views; interior must never be mistaken for corner/side.
          EXPECT_TRUE(local == Role::kInterior || local == Role::kLine ||
                      local == Role::kLineEnd)
              << "robot " << i << " seed " << seed;
          break;
        case geom::HullPosition::kOutside:
          FAIL() << "world point outside world hull";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSizes, ClassificationSoundness,
    ::testing::Combine(::testing::Values(gen::ConfigFamily::kUniformDisk,
                                         gen::ConfigFamily::kGaussianBlob,
                                         gen::ConfigFamily::kRingWithCore,
                                         gen::ConfigFamily::kGrid,
                                         gen::ConfigFamily::kDenseDiameter),
                       ::testing::Values(std::size_t{8}, std::size_t{32},
                                         std::size_t{96})));

TEST(GateSelection, NearestHullEdge) {
  // Observer just above the bottom edge of a square.
  const std::vector<Vec2> world = {{5, 1}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kInterior);
  const auto gate = nearest_hull_edge(view);
  ASSERT_TRUE(gate.has_value());
  EXPECT_NEAR(gate->distance, 1.0, 1e-9);
  // The gate must be the bottom edge (both endpoints have y == -1 in the
  // observer-centered frame).
  EXPECT_NEAR(gate->c1.y, -1.0, 1e-9);
  EXPECT_NEAR(gate->c2.y, -1.0, 1e-9);
  // The gate carries its hull position.
  const std::size_t h = view.hull.size();
  EXPECT_EQ(view.hull[gate->k], gate->i1);
  EXPECT_EQ(view.hull[(gate->k + 1) % h], gate->i2);
  EXPECT_EQ(hull_edge_distance(view, view.self()), gate->distance);
}

TEST(GateSelection, ContainingEdgeForSideRobot) {
  const std::vector<Vec2> world = {{4, 0}, {0, 0}, {8, 0}, {4, 8}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kSide);
  const auto edge = containing_hull_edge(view);
  ASSERT_TRUE(edge.has_value());
  // Both endpoints are on the x-axis in local coordinates.
  EXPECT_NEAR(edge->c1.y, 0.0, 1e-12);
  EXPECT_NEAR(edge->c2.y, 0.0, 1e-12);
}

TEST(GateBlocking, CloserRobotInTriangleBlocks) {
  // Observer at (5,3) (bottom edge nearest); robot at (5,1.5) is in the
  // triangle between the observer and that edge.
  const std::vector<Vec2> world = {{5, 3}, {0, 0}, {10, 0}, {5, 10}, {5, 1.5}};
  const auto view = view_of(world, 0);
  const auto gate = nearest_hull_edge(view);
  ASSERT_TRUE(gate.has_value());
  EXPECT_TRUE(gate_blocked_by_closer_robot(view, *gate));
}

TEST(GateBlocking, EmptyTriangleDoesNotBlock) {
  const std::vector<Vec2> world = {{5, 1.5}, {0, 0}, {10, 0}, {5, 10}, {5, 3}};
  const auto view = view_of(world, 0);
  const auto gate = nearest_hull_edge(view);
  ASSERT_TRUE(gate.has_value());
  EXPECT_FALSE(gate_blocked_by_closer_robot(view, *gate));
}

/// The bound's contract at one query: a number (never NaN) no smaller
/// than the exact minimum over the hull edges.
void expect_valid_bound(const LocalView& view, Vec2 centre, Vec2 p, const std::string& what) {
  const double bound = hull_edge_distance_bound(view, centre, p);
  ASSERT_FALSE(std::isnan(bound)) << what;
  ASSERT_GE(bound, hull_edge_distance(view, p)) << what;
}

/// A bare view of `pts` with their strict hull. It borrows `pts`, which
/// must outlive it.
LocalView hull_view(const std::vector<Vec2>& pts) {
  LocalView view;
  view.pts = pts;
  view.hull = geom::convex_hull_indices(pts);
  return view;
}

TEST(HullEdgeDistanceBound, NeverBelowTheExactMinimum) {
  // Points inside, on and outside random convex hulls, with the search
  // centred on the hull-vertex mean and on a poor centre (a hull vertex).
  util::Prng rng{23};
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 3 + rng.next_below(40);
    std::vector<Vec2> pts;
    for (std::size_t k = 0; k < n; ++k) {
      pts.push_back({rng.uniform(-10, 10), rng.uniform(-4, 4)});
    }
    const LocalView view = hull_view(pts);
    const std::size_t h = view.hull.size();
    if (h < 3) continue;
    const Vec2 mean = hull_vertex_mean(view);
    std::vector<Vec2> queries = {mean};
    for (std::size_t k = 0; k < h; ++k) {
      const Vec2 a = pts[view.hull[k]];
      const Vec2 b = pts[view.hull[(k + 1) % h]];
      queries.push_back(a);                                      // On: a vertex.
      queries.push_back(geom::lerp(a, b, rng.uniform(0, 1)));    // On: an edge.
      queries.push_back(geom::lerp(mean, a, rng.uniform(0, 1)));  // Inside.
      queries.push_back(mean + (a - mean) * rng.uniform(1.01, 6));  // Outside.
    }
    for (std::size_t q = 0; q < 8; ++q) {
      queries.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
    }
    for (const Vec2 centre : {mean, pts[view.hull[0]], pts[view.hull[h / 2]]}) {
      for (const Vec2 p : queries) {
        const double exact = hull_edge_distance(view, p);
        const double bound = hull_edge_distance_bound(view, centre, p);
        ASSERT_GE(bound, exact) << "trial " << trial;
        // The bound is the distance to an actual hull edge.
        bool is_edge_distance = false;
        for (std::size_t k = 0; k < h && !is_edge_distance; ++k) {
          is_edge_distance = geom::point_segment_distance(
                                 {pts[view.hull[k]], pts[view.hull[(k + 1) % h]]}, p) == bound;
        }
        EXPECT_TRUE(is_edge_distance) << "trial " << trial;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 10000);
}

TEST(HullEdgeDistanceBound, FindsTheSectorEdgeOfASquare) {
  // Centred in a square, the angular search lands on the edge facing p.
  const std::vector<Vec2> pts = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  const LocalView view = hull_view(pts);
  const Vec2 centre = hull_vertex_mean(view);
  EXPECT_EQ(centre, (Vec2{2, 2}));
  EXPECT_DOUBLE_EQ(hull_edge_distance_bound(view, centre, {2, 0.5}), 0.5);
  EXPECT_DOUBLE_EQ(hull_edge_distance_bound(view, centre, {3.75, 2}), 0.25);
  EXPECT_DOUBLE_EQ(hull_edge_distance_bound(view, centre, {2, 7}), 3.0);
  EXPECT_DOUBLE_EQ(hull_edge_distance_bound(view, centre, {-1, 2.5}), 1.0);
}

TEST(HullEdgeDistanceBound, QueryAtTheCentre) {
  // p == centre: the pseudo-angle of the zero vector is defined as 0.
  const std::vector<Vec2> pts = {{0, 0}, {4, 0}, {5, 3}, {1, 4}, {-1, 2}};
  const LocalView view = hull_view(pts);
  const Vec2 centre = hull_vertex_mean(view);
  expect_valid_bound(view, centre, centre, "centre");
  for (const std::size_t k : view.hull) {
    expect_valid_bound(view, pts[k], pts[k], "centre at a vertex");
  }
}

TEST(HullEdgeDistanceBound, QueriesOnAHullVertexRay) {
  // Points on the ray from the centre through each hull vertex, at the
  // vertex itself and inside and outside it: the pseudo-angle ties with
  // the vertex's own, so the search may land on either incident edge.
  const std::vector<Vec2> pts = {{0, 0}, {6, -1}, {8, 3}, {4, 7}, {-2, 5}, {-3, 1}};
  const LocalView view = hull_view(pts);
  ASSERT_EQ(view.hull.size(), pts.size());
  const Vec2 centre = hull_vertex_mean(view);
  for (const std::size_t k : view.hull) {
    const Vec2 v = pts[k];
    EXPECT_EQ(hull_edge_distance_bound(view, centre, v), 0.0) << "vertex " << k;
    for (const double s : {0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0, 100.0}) {
      expect_valid_bound(view, centre, centre + (v - centre) * s,
                         "vertex " + std::to_string(k) + " s " + std::to_string(s));
    }
  }
}

TEST(HullEdgeDistanceBound, RandomHullsUnderRandomFrames) {
  // World hulls seen through random similarity frames (scales 1/4..4,
  // reflections), queried at their vertices, on their vertex rays and at
  // random points, around the vertex mean.
  util::Prng rng{514};
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 3 + rng.next_below(30);
    std::vector<Vec2> world;
    for (std::size_t k = 0; k < n; ++k) {
      world.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    }
    const auto frame = model::LocalFrame::random(world[0], rng);
    std::vector<Vec2> pts;
    for (const Vec2 w : world) pts.push_back(frame.to_local(w));
    const LocalView view = hull_view(pts);
    if (view.hull.size() < 3) continue;
    const Vec2 centre = hull_vertex_mean(view);
    const std::string what = "trial " + std::to_string(trial);
    expect_valid_bound(view, centre, centre, what);
    for (const std::size_t k : view.hull) {
      expect_valid_bound(view, centre, pts[k], what);
      expect_valid_bound(view, centre, centre + (pts[k] - centre) * rng.uniform(0, 3), what);
    }
    for (int q = 0; q < 20; ++q) {
      expect_valid_bound(view, centre, frame.to_local({rng.uniform(-80, 80), rng.uniform(-80, 80)}),
                         what);
    }
  }
}

TEST(HullEdgeDistanceBound, InfiniteWithoutATwoDimensionalHull) {
  LocalView view;
  const std::vector<Vec2> pts = {{0, 0}, {1, 0}};
  view.pts = pts;
  view.hull = {0, 1};
  EXPECT_EQ(hull_edge_distance(view, {0, 1}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(hull_edge_distance_bound(view, {0.5, 0}, {0, 1}),
            std::numeric_limits<double>::infinity());
}

TEST(LocalViewAccessors, HullPointsMatchIndices) {
  const std::vector<Vec2> world = {{5, 4}, {0, 0}, {10, 0}, {5, 10}};
  const auto view = view_of(world, 0);
  const auto hp = view.hull_points();
  ASSERT_EQ(hp.size(), view.hull.size());
  for (std::size_t k = 0; k < hp.size(); ++k) {
    EXPECT_EQ(hp[k], view.pts[view.hull[k]]);
  }
  EXPECT_EQ(view.count(), world.size());
  EXPECT_EQ(view.self(), (Vec2{0, 0}));
}

}  // namespace
}  // namespace lumen::core
