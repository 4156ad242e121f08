// Collision-monitor tests: the closed-form closest approach, constructed
// collision/crossing scenarios, and the final-configuration verdicts.
#include "sim/monitors.hpp"

#include "collision_oracle.hpp"

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace lumen::sim {
namespace {

using geom::Vec2;

TEST(MinDistanceLinearMotion, HeadOnPassThrough) {
  // Two points swap positions along the same line: they meet at the middle.
  double t_min = 0.0;
  const double d = min_distance_linear_motion({0, 0}, {10, 0}, {10, 0}, {0, 0},
                                              0.0, 1.0, &t_min);
  EXPECT_NEAR(d, 0.0, 1e-12);
  EXPECT_NEAR(t_min, 0.5, 1e-12);
}

TEST(MinDistanceLinearMotion, ParallelMotionKeepsDistance) {
  const double d =
      min_distance_linear_motion({0, 0}, {10, 0}, {0, 3}, {10, 3}, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(d, 3.0);
}

TEST(MinDistanceLinearMotion, StationaryVsMover) {
  // Mover passes within 1 of a stationary point.
  const double d =
      min_distance_linear_motion({-5, 1}, {5, 1}, {0, 0}, {0, 0}, 0.0, 1.0);
  EXPECT_NEAR(d, 1.0, 1e-12);
}

TEST(MinDistanceLinearMotion, MinimumAtEndpoint) {
  // Receding motion: minimum at t0.
  double t_min = -1.0;
  const double d = min_distance_linear_motion({1, 0}, {10, 0}, {0, 0}, {0, 0},
                                              3.0, 4.0, &t_min);
  EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_DOUBLE_EQ(t_min, 3.0);
}

TEST(MinDistanceLinearMotion, AgreesWithDenseSampling) {
  util::Prng rng{23};
  for (int iter = 0; iter < 500; ++iter) {
    const Vec2 a0{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec2 a1{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec2 b0{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec2 b1{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const double closed = min_distance_linear_motion(a0, a1, b0, b1, 0.0, 1.0);
    double sampled = 1e300;
    for (int k = 0; k <= 1000; ++k) {
      const double s = k / 1000.0;
      sampled = std::min(sampled,
                         geom::distance(geom::lerp(a0, a1, s), geom::lerp(b0, b1, s)));
    }
    EXPECT_LE(closed, sampled + 1e-9);
    EXPECT_NEAR(closed, sampled, 1e-3);
  }
}

TEST(CheckCollisions, CleanRunOfDisjointMovers) {
  const std::vector<Vec2> initial = {{0, 0}, {100, 100}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 0}},
      {1, 0.0, 1.0, {100, 100}, {90, 100}},
  };
  const auto report = check_collisions(initial, moves, 2.0);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.min_separation, 50.0);
  EXPECT_FALSE(report.first_incident.has_value());
}

TEST(CheckCollisions, DetectsMeetingAtAPoint) {
  const std::vector<Vec2> initial = {{0, 0}, {10, 0}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {5, 0}},
      {1, 0.0, 1.0, {10, 0}, {5, 0}},
  };
  const auto report = check_collisions(initial, moves, 2.0);
  EXPECT_GT(report.position_collisions, 0u);
  EXPECT_NEAR(report.min_separation, 0.0, 1e-12);
  ASSERT_TRUE(report.first_incident.has_value());
  EXPECT_EQ(report.first_incident->kind, "position");
}

TEST(CheckCollisions, DetectsCrossingPaths) {
  // Paths cross in space while both robots move concurrently, but they pass
  // the crossing point at different speeds so positions never coincide.
  const std::vector<Vec2> initial = {{0, 0}, {0, 10}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 10.0, {0, 0}, {10, 10}},
      {1, 0.0, 1.0, {0, 10}, {10, 0}},
  };
  const auto report = check_collisions(initial, moves, 12.0);
  EXPECT_GT(report.path_crossings, 0u);
  EXPECT_GT(report.min_separation, 0.0);
  EXPECT_FALSE(report.clean());
}

TEST(CheckCollisions, NonOverlappingTimesMayShareSpace) {
  // Same path traversed at disjoint times: legal.
  const std::vector<Vec2> initial = {{0, 0}, {10, 0}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 5}},
      {1, 5.0, 6.0, {10, 0}, {0, 5}},
  };
  const auto report = check_collisions(initial, moves, 7.0);
  EXPECT_EQ(report.path_crossings, 0u);
  EXPECT_EQ(report.position_collisions, 0u);
}

TEST(CheckCollisions, MoverThroughStationaryRobot) {
  const std::vector<Vec2> initial = {{0, 0}, {5, 0}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 0}},  // Passes exactly through (5, 0).
  };
  const auto report = check_collisions(initial, moves, 2.0);
  EXPECT_GT(report.position_collisions, 0u);
}

TEST(CheckCollisions, ToleranceFlagsGrazingContact) {
  const std::vector<Vec2> initial = {{0, 0}, {5, 0.05}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 0}},
  };
  EXPECT_TRUE(check_collisions(initial, moves, 2.0, 0.0).clean());
  EXPECT_FALSE(check_collisions(initial, moves, 2.0, 0.1).clean());
}

TEST(CheckCollisions, InitialCoincidenceIsDetectedWithoutMoves) {
  const std::vector<Vec2> initial = {{1, 1}, {1, 1}};
  const auto report = check_collisions(initial, {}, 1.0);
  EXPECT_EQ(report.min_separation, 0.0);
  EXPECT_GT(report.position_collisions, 0u);
}

TEST(VerifyCompleteVisibility, Verdicts) {
  const std::vector<Vec2> convex = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  const auto good = verify_complete_visibility(convex);
  EXPECT_TRUE(good.distinct);
  EXPECT_TRUE(good.strictly_convex);
  EXPECT_TRUE(good.mutually_visible);
  EXPECT_TRUE(good.complete());

  const std::vector<Vec2> blocked = {{0, 0}, {2, 0}, {4, 0}};
  const auto bad = verify_complete_visibility(blocked);
  EXPECT_TRUE(bad.distinct);
  EXPECT_FALSE(bad.strictly_convex);
  EXPECT_FALSE(bad.mutually_visible);
  EXPECT_FALSE(bad.complete());

  const std::vector<Vec2> dup = {{0, 0}, {0, 0}, {1, 1}};
  EXPECT_FALSE(verify_complete_visibility(dup).distinct);
}

}  // namespace
}  // namespace lumen::sim
