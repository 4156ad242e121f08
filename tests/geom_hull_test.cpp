// Convex hull tests: known shapes, degeneracies, and randomized invariants
// checked against first principles (every point inside, every hull vertex
// strictly extreme); the sweep hull against the sorted hull on real Look
// snapshots and on the orders its certificate must decline.
#include "geom/hull.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "gen/generators.hpp"
#include "geom/predicates.hpp"
#include "hull_oracle.hpp"
#include "model/frame.hpp"
#include "model/snapshot.hpp"
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

/// A hull list no successful sweep returns: a declined sweep must leave it.
const std::vector<std::size_t> kUntouched = {7, 7, 7};

TEST(SweepHull, MatchesTheSortedHullOnLookSnapshots) {
  // Every observer's Look under a random local frame (reflected in about
  // half): the snapshot lists the visible robots in the sweep order of the
  // world frame, mapped through the frame. Success must give exactly the
  // sorted hull with the observer strictly inside it; a decline must leave
  // the output alone.
  util::Prng rng{31};
  int swept = 0;
  int swept_reflected = 0;
  int interior = 0;
  int declined_boundary = 0;
  std::size_t largest = 0;
  for (const auto family : {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kRingWithCore,
                            gen::ConfigFamily::kLattice, gen::ConfigFamily::kMultiCluster}) {
    for (const std::size_t n : {4u, 9u, 33u, 130u, 517u, 2048u}) {
      const auto world = gen::generate(family, n, 7 + n);
      const std::vector<model::Light> lights(world.size(), model::Light::kOff);
      for (std::size_t i = 0; i < world.size(); ++i) {
        const auto frame = model::LocalFrame::random(world[i], rng);
        const auto snap = model::build_snapshot(world, lights, i, frame);
        const auto pts = snap.all_positions();
        const auto expected = convex_hull_indices(pts);
        std::vector<Vec2> hull_pts;
        for (const auto k : expected) hull_pts.push_back(pts[k]);
        const bool inside = expected.size() >= 3 &&
                            classify_against_hull(hull_pts, pts[0]) == HullPosition::kInterior;
        std::vector<std::size_t> hull = kUntouched;
        const bool ok = sweep_hull_indices(pts, hull);
        const std::string what = std::string(gen::to_string(family)) + " n=" +
                                 std::to_string(n) + " robot " + std::to_string(i);
        if (ok) {
          EXPECT_EQ(hull, expected) << what;
          EXPECT_TRUE(inside) << what;
          ++swept;
          if (frame.reflected()) ++swept_reflected;
          largest = std::max(largest, pts.size());
        } else {
          EXPECT_EQ(hull, kUntouched) << what;
          if (!inside) ++declined_boundary;
        }
        if (inside) ++interior;
      }
    }
  }
  // Rounding rarely reorders a sweep: nearly every interior Look certifies.
  EXPECT_GE(swept, interior * 9 / 10);
  EXPECT_GE(swept, 3000);
  EXPECT_GE(swept_reflected, 1000);
  EXPECT_GE(declined_boundary, 300);
  EXPECT_GE(largest, 2000u);
}

/// Local points around the origin: the observer, then a regular k-gon of
/// radius 2 listed counter-clockwise from angle `phase`.
std::vector<Vec2> polygon_view(std::size_t k, double phase) {
  std::vector<Vec2> pts = {{0.0, 0.0}};
  for (std::size_t j = 0; j < k; ++j) {
    const double a = phase + 2.0 * std::numbers::pi * static_cast<double>(j) /
                                 static_cast<double>(k);
    pts.push_back({2.0 * std::cos(a), 2.0 * std::sin(a)});
  }
  return pts;
}

TEST(SweepHull, CertifiesEitherRotationalDirection) {
  for (const std::size_t k : {3u, 4u, 7u, 12u, 40u}) {
    for (const double phase : {0.0, 0.3, 2.0, 4.5}) {
      auto pts = polygon_view(k, phase);
      std::vector<std::size_t> hull;
      ASSERT_TRUE(sweep_hull_indices(pts, hull)) << "k=" << k;
      EXPECT_EQ(hull, convex_hull_indices(pts)) << "k=" << k;
      // Clockwise, as a reflected frame lists it.
      std::reverse(pts.begin() + 1, pts.end());
      ASSERT_TRUE(sweep_hull_indices(pts, hull)) << "k=" << k << " reversed";
      EXPECT_EQ(hull, convex_hull_indices(pts)) << "k=" << k << " reversed";
    }
  }
}

TEST(SweepHull, DropsPointsOnEdgesAndInside) {
  // A square with its edge midpoints and two inner points, in sweep order
  // around the observer at the origin.
  const std::vector<Vec2> pts = {{0, 0},   {2, 0},    {2, 2},   {0, 2},
                                 {-2, 2},  {-2, 0},   {-2, -2}, {-0.5, -1},
                                 {0, -2},  {1, -1.5}, {2, -2}};
  std::vector<std::size_t> hull;
  ASSERT_TRUE(sweep_hull_indices(pts, hull));
  EXPECT_EQ(hull, convex_hull_indices(pts));
  EXPECT_EQ(hull, (std::vector<std::size_t>{6, 10, 2, 4}));
}

TEST(SweepHull, DeclinesASideObserverAtAnEdgeMidpoint) {
  // The observer halfway along the edge (-1, 0)-(1, 0): the sweep's gap
  // from (-1, 0) back to (1, 0) is exactly pi, wherever the list starts.
  std::vector<Vec2> pts = {{0, 0}, {1, 0}, {0.7, 1.5}, {0, 1}, {-0.5, 2}, {-1, 0}};
  for (std::size_t r = 0; r + 1 < pts.size(); ++r) {
    std::vector<std::size_t> hull = kUntouched;
    EXPECT_FALSE(sweep_hull_indices(pts, hull)) << "rotation " << r;
    EXPECT_EQ(hull, kUntouched);
    std::rotate(pts.begin() + 1, pts.begin() + 2, pts.end());
  }
}

TEST(SweepHull, DeclinesTwoSwappedNeighbours) {
  for (const std::size_t k : {5u, 12u, 40u}) {
    for (std::size_t s = 1; s + 1 < k + 1; ++s) {
      auto pts = polygon_view(k, 0.1);
      std::swap(pts[s], pts[s + 1]);
      std::vector<std::size_t> hull = kUntouched;
      EXPECT_FALSE(sweep_hull_indices(pts, hull)) << "k=" << k << " s=" << s;
      EXPECT_EQ(hull, kUntouched);
    }
  }
}

TEST(SweepHull, DeclinesADuplicatePoint) {
  const auto base = polygon_view(12, 0.1);
  for (std::size_t s = 1; s <= 12; ++s) {
    // Repeated at once, and repeated at the far end of the sweep.
    auto adjacent = base;
    adjacent.insert(adjacent.begin() + static_cast<std::ptrdiff_t>(s), base[s]);
    auto distant = base;
    distant.push_back(base[s]);
    for (const auto& pts : {adjacent, distant}) {
      std::vector<std::size_t> hull = kUntouched;
      EXPECT_FALSE(sweep_hull_indices(pts, hull)) << "s=" << s;
      EXPECT_EQ(hull, kUntouched);
    }
  }
  // A point on the observer itself has no direction, so the certificate
  // cannot take it; the cull drops it first here (it is strictly inside the
  // extreme quad), and the hull is the sorted one.
  auto coincident = base;
  coincident.insert(coincident.begin() + 4, Vec2{0, 0});
  std::vector<std::size_t> hull;
  ASSERT_TRUE(sweep_hull_indices(coincident, hull));
  EXPECT_EQ(hull, convex_hull_indices(coincident));
}

TEST(SweepHull, DeclinesAnObserverOnTheHull) {
  // The observer is a hull vertex: everything lies in the upper half-plane,
  // listed in sweep order, so the step from the last point back to the
  // first turns the other way.
  std::vector<Vec2> pts = {{0, 0}};
  for (std::size_t j = 1; j <= 20; ++j) {
    const double a = std::numbers::pi * static_cast<double>(j) / 21.0;
    pts.push_back({std::cos(a) * (1.0 + 0.1 * static_cast<double>(j % 3)), std::sin(a)});
  }
  std::vector<std::size_t> hull = kUntouched;
  EXPECT_FALSE(sweep_hull_indices(pts, hull));
  EXPECT_EQ(hull, kUntouched);
  // Too few points to surround anything.
  for (const auto& few :
       {std::vector<Vec2>{}, std::vector<Vec2>{{0, 0}}, std::vector<Vec2>{{0, 0}, {1, 0}, {0, 1}}}) {
    EXPECT_FALSE(sweep_hull_indices(few, hull));
    EXPECT_EQ(hull, kUntouched);
  }
}

TEST(SweepHull, DeclinesASweepListedTwice) {
  // Every consecutive pair turns the same way, but the sweep winds twice.
  for (const std::size_t k : {3u, 8u, 25u}) {
    auto pts = polygon_view(k, 0.2);
    const std::vector<Vec2> once(pts.begin() + 1, pts.end());
    pts.insert(pts.end(), once.begin(), once.end());
    std::vector<std::size_t> hull = kUntouched;
    EXPECT_FALSE(sweep_hull_indices(pts, hull)) << "k=" << k;
    EXPECT_EQ(hull, kUntouched);
  }
}

}  // namespace
}  // namespace lumen::geom
