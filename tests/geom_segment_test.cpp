// Segment intersection/classification tests — the relation behind the
// paper's "paths do not cross" guarantee.
#include "geom/segment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/prng.hpp"

namespace lumen::geom {
namespace {

TEST(SegmentClassify, ProperCrossing) {
  const Segment s{{0, 0}, {10, 10}};
  const Segment t{{0, 10}, {10, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kProperCrossing);
  EXPECT_TRUE(segments_intersect(s, t));
  EXPECT_TRUE(segments_cross(s, t));
  const auto p = crossing_point(s, t);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 5.0, 1e-12);
  EXPECT_NEAR(p->y, 5.0, 1e-12);
}

TEST(SegmentClassify, Disjoint) {
  const Segment s{{0, 0}, {1, 0}};
  const Segment t{{0, 1}, {1, 1}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
  EXPECT_FALSE(segments_intersect(s, t));
  EXPECT_FALSE(segments_cross(s, t));
  EXPECT_FALSE(crossing_point(s, t).has_value());
}

TEST(SegmentClassify, SharedEndpointIsTouchingNotCrossing) {
  const Segment s{{0, 0}, {1, 1}};
  const Segment t{{1, 1}, {2, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kTouching);
  EXPECT_TRUE(segments_intersect(s, t));
  EXPECT_FALSE(segments_cross(s, t));
}

TEST(SegmentClassify, TJunctionIsTouchingAndCrossing) {
  // t's endpoint lands strictly inside s: one shared point, but an interior
  // one — for robot paths this IS a crossing hazard.
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{5, -3}, {5, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kTouching);
  EXPECT_TRUE(segments_cross(s, t));
}

TEST(SegmentClassify, CollinearOverlap) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{5, 0}, {15, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kOverlapping);
  EXPECT_TRUE(segments_cross(s, t));
}

TEST(SegmentClassify, CollinearTouchAtEndpointOnly) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{10, 0}, {20, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kTouching);
  EXPECT_FALSE(segments_cross(s, t));
}

TEST(SegmentClassify, CollinearDisjoint) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{11, 0}, {20, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
}

TEST(SegmentClassify, DegeneratePointSegments) {
  const Segment point{{3, 3}, {3, 3}};
  const Segment s{{0, 0}, {10, 10}};
  EXPECT_EQ(classify_intersection(point, s), SegmentRelation::kTouching);
  EXPECT_EQ(classify_intersection(s, point), SegmentRelation::kTouching);
  const Segment far_point{{3, 4}, {3, 4}};
  EXPECT_EQ(classify_intersection(far_point, s), SegmentRelation::kDisjoint);
  EXPECT_EQ(classify_intersection(point, point), SegmentRelation::kTouching);
  EXPECT_EQ(classify_intersection(point, far_point), SegmentRelation::kDisjoint);
}

TEST(SegmentClassify, ParallelNonCollinear) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{0, 1}, {10, 1}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
}

TEST(SegmentClassify, NearMissBelowIsNotIntersecting) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{5, -1}, {5, -1e-12}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
}

TEST(SegmentDistance, PointToSegment) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {5, 3}), 3.0);
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {-4, 3}), 5.0);
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {14, -3}), 5.0);
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {7, 0}), 0.0);
}

TEST(SegmentDistance, Projection) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(project_onto_segment(s, {3, 5}), 0.3);
  EXPECT_DOUBLE_EQ(project_onto_segment(s, {-3, 5}), 0.0);
  EXPECT_DOUBLE_EQ(project_onto_segment(s, {13, 5}), 1.0);
  const Segment degenerate{{2, 2}, {2, 2}};
  EXPECT_DOUBLE_EQ(project_onto_segment(degenerate, {5, 5}), 0.0);
}

TEST(SegmentDistance, SegmentToSegment) {
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({{0, 0}, {10, 0}}, {{0, 3}, {10, 3}}), 3.0);
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({{0, 0}, {10, 10}}, {{0, 10}, {10, 0}}), 0.0);
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({{0, 0}, {1, 0}}, {{3, 0}, {4, 0}}), 2.0);
}

/// A double of random sign whose magnitude spans the whole range, from
/// subnormals to near DBL_MAX.
double wide_magnitude(util::Prng& rng) {
  const double m = std::ldexp(rng.uniform(1.0, 2.0),
                              static_cast<int>(rng.uniform_int(-1080, 1022)));
  return rng.bernoulli(0.5) ? -m : m;
}

TEST(SegmentDistanceCertificate, HypotNeverBelowTheLargerComponent) {
  // The fact point_segment_distance_within rests on: for every pair of
  // doubles, the rounded hypot is at least max(|x|, |y|).
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<std::pair<double, double>> cases = {
      {0.0, 0.0}, {kTiny, 0.0}, {kTiny, kTiny}, {-kTiny, kTiny},
      {kMax, 0.0}, {kMax, kMax}, {-kMax, kMax}, {kMax, kTiny},
      {1.0, 1.0}, {3.0, -4.0}, {0.1, 0.1}, {1e-310, 1e-310}};
  util::Prng rng{1405};
  for (int i = 0; i < 200000; ++i) {
    const double x = wide_magnitude(rng);
    const double y = i % 3 == 0   ? (rng.bernoulli(0.5) ? x : -x)  // Equal.
                     : i % 3 == 1 ? wide_magnitude(rng)
                                  : x * rng.uniform(-1.0, 1.0);  // Same scale.
    cases.emplace_back(x, y);
  }
  for (const auto& [x, y] : cases) {
    const double h = std::hypot(x, y);
    ASSERT_GE(h, std::fabs(x)) << x << ", " << y;
    ASSERT_GE(h, std::fabs(y)) << x << ", " << y;
  }
}

/// The thresholds where a certified comparison could go wrong: the exact
/// distance and its neighbours, the larger component (where the
/// certificate switches on) and its neighbours, and a few fixed values.
std::vector<double> probe_thresholds(const Segment& s, Vec2 p, util::Prng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double d = point_segment_distance(s, p);
  const Vec2 v = closest_point_on_segment(s, p) - p;
  std::vector<double> out = {0.0, -0.0, kInf, -1.0, std::nan(""),
                             rng.uniform(0.0, 2.0) * d};
  for (const double t : {d, std::fabs(v.x), std::fabs(v.y)}) {
    out.push_back(t);
    out.push_back(std::nextafter(t, kInf));
    out.push_back(std::nextafter(t, -kInf));
  }
  return out;
}

TEST(SegmentDistanceCertificate, WithinMatchesThePlainComparisons) {
  util::Prng rng{2430};
  const auto point = [&](double scale) {
    return Vec2{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
  };
  int certified = 0;
  int compared = 0;
  for (int i = 0; i < 20000; ++i) {
    const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform_int(-40, 40)));
    Segment s{point(scale), point(scale)};
    switch (i % 4) {
      case 0: s.b = s.a; break;                                      // A point.
      case 1: s.b = {std::nextafter(s.a.x, 1e300), s.a.y}; break;  // One ulp long.
      case 2: s.b = {s.a.x, s.b.y}; break;                          // Axis-aligned.
      default: break;
    }
    const std::vector<Vec2> queries = {point(scale), point(4 * scale), s.a, s.b,
                                       geom::midpoint(s.a, s.b),
                                       {s.a.x, s.a.y + scale}};
    for (const Vec2 p : queries) {
      const double plain = point_segment_distance(s, p);
      for (const double r : probe_thresholds(s, p, rng)) {
        const double within = point_segment_distance_within(s, p, r);
        ASSERT_EQ(within <= r, plain <= r) << "case " << i << " r " << r;
        ASSERT_EQ(within < r, plain < r) << "case " << i << " r " << r;
        // Not certified: the very double the plain kernel returns.
        if (within != std::numeric_limits<double>::infinity()) {
          ASSERT_EQ(within, plain) << "case " << i;
        } else if (plain != within) {
          ++certified;
        }
        ++compared;
      }
    }
  }
  // The certificate must actually fire for this test to mean anything.
  EXPECT_GT(certified, compared / 10);
}

TEST(SegmentDistanceCertificate, NanInputsCompareFalseAsBefore) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const Segment s{{0, 0}, {1, 0}};
  for (const Vec2 p : {Vec2{kNan, 0}, Vec2{0, kNan}, Vec2{kNan, kNan}}) {
    EXPECT_FALSE(point_segment_distance_within(s, p, 1.0) <= 1.0);
    EXPECT_FALSE(point_segment_distance(s, p) <= 1.0);
  }
  EXPECT_FALSE(point_segment_distance_within(s, {0, 5}, kNan) <= kNan);
}

TEST(SegmentCross, RandomizedConsistencyWithClassification) {
  util::Prng rng{2024};
  for (int i = 0; i < 5000; ++i) {
    const Segment s{{rng.uniform(-5, 5), rng.uniform(-5, 5)},
                    {rng.uniform(-5, 5), rng.uniform(-5, 5)}};
    const Segment t{{rng.uniform(-5, 5), rng.uniform(-5, 5)},
                    {rng.uniform(-5, 5), rng.uniform(-5, 5)}};
    const auto rel = classify_intersection(s, t);
    if (rel == SegmentRelation::kProperCrossing ||
        rel == SegmentRelation::kOverlapping) {
      EXPECT_TRUE(segments_cross(s, t));
    }
    if (rel == SegmentRelation::kDisjoint) {
      EXPECT_FALSE(segments_cross(s, t));
      EXPECT_GT(segment_segment_distance(s, t), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(segment_segment_distance(s, t), 0.0);
    }
  }
}

}  // namespace
}  // namespace lumen::geom
