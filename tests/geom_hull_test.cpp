// Convex hull tests: known shapes, degeneracies, and randomized invariants
// checked against first principles (every point inside, every hull vertex
// strictly extreme).
#include "geom/hull.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/predicates.hpp"
#include "hull_oracle.hpp"
#include "util/prng.hpp"

namespace lumen::geom {
namespace {

std::vector<Vec2> hull_points_of(std::span<const Vec2> pts) {
  std::vector<Vec2> out;
  for (const auto i : convex_hull_indices(pts)) out.push_back(pts[i]);
  return out;
}

TEST(ConvexHull, EmptySingleAndPair) {
  EXPECT_TRUE(convex_hull_indices({}).empty());
  const std::vector<Vec2> one = {{1, 2}};
  EXPECT_EQ(convex_hull_indices(one), (std::vector<std::size_t>{0}));
  const std::vector<Vec2> two = {{1, 2}, {0, 0}};
  const auto h2 = convex_hull_indices(two);
  EXPECT_EQ(h2.size(), 2u);
  EXPECT_EQ(two[h2[0]], (Vec2{0, 0}));  // Lexicographic start.
}

TEST(ConvexHull, SquareWithMidpointsAndCenter) {
  // Strict hull excludes edge midpoints and the center.
  const std::vector<Vec2> pts = {{0, 0}, {2, 0}, {2, 2}, {0, 2},
                                 {1, 0}, {2, 1}, {1, 2}, {0, 1}, {1, 1}};
  const auto hull = convex_hull_indices(pts);
  ASSERT_EQ(hull.size(), 4u);
  std::vector<Vec2> hp = hull_points_of(pts);
  // CCW from lexicographic min (0,0).
  EXPECT_EQ(hp[0], (Vec2{0, 0}));
  EXPECT_EQ(hp[1], (Vec2{2, 0}));
  EXPECT_EQ(hp[2], (Vec2{2, 2}));
  EXPECT_EQ(hp[3], (Vec2{0, 2}));
}

TEST(ConvexHull, CcwOrientation) {
  const std::vector<Vec2> pts = {{0, 0}, {4, 1}, {2, 5}, {1, 1}, {3, 2}};
  const auto hp = hull_points_of(pts);
  ASSERT_GE(hp.size(), 3u);
  for (std::size_t i = 0; i < hp.size(); ++i) {
    EXPECT_GT(orient2d(hp[i], hp[(i + 1) % hp.size()], hp[(i + 2) % hp.size()]), 0);
  }
}

TEST(ConvexHull, DuplicatesCollapse) {
  const std::vector<Vec2> pts = {{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}, {0, 1}};
  EXPECT_EQ(convex_hull_indices(pts).size(), 3u);
}

TEST(ConvexHull, CollinearDegeneratesToExtremes) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {1.5, 1.5}};
  const auto hull = convex_hull_indices(pts);
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_EQ(pts[hull[0]], (Vec2{0, 0}));
  EXPECT_EQ(pts[hull[1]], (Vec2{3, 3}));
}

TEST(ConvexHull, RandomizedInvariants) {
  util::Prng rng{5};
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 3 + rng.next_below(60);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    }
    const auto hull = convex_hull_indices(pts);
    const auto hp = hull_points_of(pts);
    // Every input point is inside-or-on the hull.
    for (const auto& p : pts) {
      EXPECT_NE(classify_against_hull(hp, p), HullPosition::kOutside);
    }
    // Every hull vertex is a strict corner (left turns all around).
    if (hp.size() >= 3) {
      for (std::size_t i = 0; i < hp.size(); ++i) {
        EXPECT_GT(orient2d(hp[i], hp[(i + 1) % hp.size()], hp[(i + 2) % hp.size()]), 0);
      }
    }
  }
}

TEST(ClassifyAgainstHull, AllPositions) {
  const std::vector<Vec2> hull = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_EQ(classify_against_hull(hull, {0, 0}), HullPosition::kVertex);
  EXPECT_EQ(classify_against_hull(hull, {2, 0}), HullPosition::kEdge);
  EXPECT_EQ(classify_against_hull(hull, {2, 2}), HullPosition::kInterior);
  EXPECT_EQ(classify_against_hull(hull, {5, 2}), HullPosition::kOutside);
  EXPECT_EQ(classify_against_hull(hull, {-1e-12, 2}), HullPosition::kOutside);
}

TEST(ClassifyAgainstHull, DegenerateHulls) {
  const std::vector<Vec2> seg = {{0, 0}, {4, 0}};
  EXPECT_EQ(classify_against_hull(seg, {0, 0}), HullPosition::kVertex);
  EXPECT_EQ(classify_against_hull(seg, {2, 0}), HullPosition::kEdge);
  EXPECT_EQ(classify_against_hull(seg, {5, 0}), HullPosition::kOutside);
  EXPECT_EQ(classify_against_hull(seg, {2, 1}), HullPosition::kOutside);
  const std::vector<Vec2> pt = {{1, 1}};
  EXPECT_EQ(classify_against_hull(pt, {1, 1}), HullPosition::kVertex);
  EXPECT_EQ(classify_against_hull(pt, {1, 2}), HullPosition::kOutside);
}

TEST(StrictConvexPosition, Recognizers) {
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{}));
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{{0, 0}}));
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{{0, 0}, {1, 0}}));
  EXPECT_TRUE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {4, 0}, {4, 4}, {0, 4}}));
  // Midpoint of an edge breaks strictness.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}}));
  // Interior point breaks it.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}}));
  // Three collinear points are not strictly convex.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {1, 1}, {2, 2}}));
  // Duplicates are never in convex position.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {0, 0}, {1, 0}, {0, 1}}));
}

TEST(AllCollinear, Cases) {
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{1, 1}}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{1, 1}, {2, 2}}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{0, 0}, {1, 2}, {2, 4}, {-3, -6}}));
  EXPECT_FALSE(all_collinear(std::vector<Vec2>{{0, 0}, {1, 2}, {2, 4.0001}}));
  // Coincident anchor handling.
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{5, 5}, {5, 5}, {5, 5}}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{5, 5}, {5, 5}, {7, 7}}));
}

TEST(ConvexHull, LexicographicStartVertex) {
  util::Prng rng{11};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 20; ++i) {
      pts.push_back({rng.uniform(-9, 9), rng.uniform(-9, 9)});
    }
    const auto hull = convex_hull_indices(pts);
    ASSERT_FALSE(hull.empty());
    const Vec2 first = pts[hull[0]];
    for (const auto i : hull) {
      EXPECT_LE(first, pts[i]);
    }
  }
}

}  // namespace
}  // namespace lumen::geom
