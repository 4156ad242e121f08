// Bit-identity pinning for the dispatched SIMD batch kernels.
//
// The contract in geom/simd.hpp is that every vector level reproduces the
// scalar reference BYTE FOR BYTE: same AngularKey images, same presort
// records, same cull mask, same sorted record order. These tests enumerate
// every level the running binary supports (set_active_level refuses the
// rest) and memcmp each kernel's output against the scalar level across
// adversarial input families — uniform random, collinear-heavy (exercises
// the dy == 0 half-plane tie-break), coincident-heavy (skipped lanes), and
// a small integer lattice (exactly representable coordinates, maximal key
// ties) — at sizes chosen to hit every vector-width remainder path. The
// Compute scans (farthest point, nearest neighbour, corridor, cone skip)
// are compared the same way on robots' local views and on degenerate
// inputs.
#include "gen/generators.hpp"
#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "geom/visibility_detail.hpp"
#include "model/frame.hpp"
#include "simd_levels.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace lumen {
namespace {

using geom::Vec2;
using geom::simd::Level;

struct InputFamily {
  const char* name;
  std::vector<Vec2> (*make)(std::size_t n, std::uint64_t seed);
};

std::vector<Vec2> make_random(std::size_t n, std::uint64_t seed) {
  util::Prng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    pts.push_back(Vec2{rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)});
  }
  return pts;
}

std::vector<Vec2> make_collinear_heavy(std::size_t n, std::uint64_t seed) {
  // Mostly points on two rays through the observer region (lots of exact
  // dy == 0 and equal-akey lanes), with a sprinkle of generic points.
  util::Prng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (j % 4) {
      case 0: pts.push_back(Vec2{static_cast<double>(j) + 1.0, 0.0}); break;
      case 1: pts.push_back(Vec2{-static_cast<double>(j), 0.0}); break;
      case 2:
        pts.push_back(Vec2{static_cast<double>(j), 2.0 * static_cast<double>(j)});
        break;
      default:
        pts.push_back(Vec2{rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
    }
  }
  return pts;
}

std::vector<Vec2> make_coincident_heavy(std::size_t n, std::uint64_t seed) {
  // Half the points duplicate a handful of sites (including the observer
  // slot's own position, which every kernel must skip as coincident).
  util::Prng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (j % 2 == 0) {
      const double site = static_cast<double>(j % 6);
      pts.push_back(Vec2{site, -site});
    } else {
      pts.push_back(Vec2{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    }
  }
  return pts;
}

std::vector<Vec2> make_lattice(std::size_t n, std::uint64_t /*seed*/) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    pts.push_back(Vec2{static_cast<double>(j % 17) - 8.0,
                       static_cast<double>(j / 17) - 8.0});
  }
  return pts;
}

constexpr InputFamily kFamilies[] = {
    {"random", make_random},
    {"collinear", make_collinear_heavy},
    {"coincident", make_coincident_heavy},
    {"lattice", make_lattice},
};

// Sizes straddling every remainder path of the 2- and 4-lane kernels.
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 5, 8, 9, 16, 17, 64, 257};

void run_build(const std::vector<Vec2>& pts, std::size_t i,
               geom::VisibilityScratch& scratch) {
  std::vector<double> xs, ys;
  for (const Vec2 p : pts) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const Vec2 o = pts.empty() ? Vec2{0.0, 0.0} : pts[i];
  geom::simd::build_keys_soa(xs.data(), ys.data(), pts.size(), i, o, scratch);
}

void expect_keys_equal(const std::vector<geom::AngularKey>& ref,
                       const std::vector<geom::AngularKey>& got,
                       const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  if (!ref.empty()) {
    EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                          ref.size() * sizeof(geom::AngularKey)),
              0)
        << what << ": AngularKey bytes differ from the scalar reference";
  }
}

TEST(GeomSimd, EveryLevelBuildsBitIdenticalKeys) {
  LevelGuard guard;
  const auto levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  ASSERT_EQ(levels.front(), Level::kScalar);
  for (const InputFamily& family : kFamilies) {
    for (std::size_t n : kSizes) {
      const auto pts = family.make(n, 7u * n + 13u);
      std::vector<std::size_t> observers = {0};
      if (n > 2) observers.push_back(n / 2);
      if (n > 1) observers.push_back(n - 1);
      for (std::size_t i : observers) {
        geom::VisibilityScratch ref;
        ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
        run_build(pts, i, ref);
        for (Level level : levels) {
          if (level == Level::kScalar) continue;
          geom::VisibilityScratch got;
          ASSERT_TRUE(geom::simd::set_active_level(level));
          run_build(pts, i, got);
          const std::string what =
              std::string(family.name) + " n=" + std::to_string(n) + " i=" +
              std::to_string(i) + " level=" +
              std::string(geom::simd::to_string(level));
          expect_keys_equal(ref.upper, got.upper, what + " upper");
          expect_keys_equal(ref.lower, got.lower, what + " lower");
          EXPECT_EQ(ref.upper_order, got.upper_order) << what;
          EXPECT_EQ(ref.lower_order, got.lower_order) << what;
        }
      }
    }
  }
}

/// Checks one half of a key build against the points it came from: the
/// keys are exactly the points of `want` (in index order), and each presort
/// record is (akey bits << 32 | slot).
void expect_half_matches(const std::vector<geom::AngularKey>& keys,
                         const std::vector<std::uint64_t>& order,
                         const std::vector<std::size_t>& want,
                         const std::string& what) {
  ASSERT_EQ(keys.size(), want.size()) << what;
  ASSERT_EQ(order.size(), want.size()) << what;
  for (std::size_t slot = 0; slot < want.size(); ++slot) {
    EXPECT_EQ(keys[slot].index, want[slot]) << what << " slot=" << slot;
    std::uint32_t bits = 0;
    std::memcpy(&bits, &keys[slot].akey, sizeof(bits));
    EXPECT_EQ(order[slot], (std::uint64_t{bits} << 32) | slot)
        << what << " slot=" << slot;
  }
}

TEST(GeomSimd, EveryLevelSizesWarmKeyBuffersExactly) {
  // One scratch per level, warmed by a larger build first: every later
  // build must leave all four vectors at the exact split of its own input,
  // with no slack slot and no leftover key of the earlier build.
  LevelGuard guard;
  for (Level level : supported_levels()) {
    ASSERT_TRUE(geom::simd::set_active_level(level));
    geom::VisibilityScratch scratch;
    run_build(make_random(257, 99), 3, scratch);
    for (const InputFamily& family : kFamilies) {
      for (std::size_t n : kSizes) {
        if (n == 0) continue;
        const auto pts = family.make(n, 5u * n + 1u);
        const std::size_t i = n / 2;
        const Vec2 o = pts[i];
        std::vector<std::size_t> up, lo;
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i || pts[j] == o) continue;
          const Vec2 d = pts[j] - o;
          (d.y > 0.0 || (d.y == 0.0 && d.x > 0.0) ? up : lo).push_back(j);
        }
        run_build(pts, i, scratch);
        const std::string what = std::string(family.name) +
                                 " n=" + std::to_string(n) + " level=" +
                                 std::string(geom::simd::to_string(level));
        expect_half_matches(scratch.upper, scratch.upper_order, up,
                            what + " upper");
        expect_half_matches(scratch.lower, scratch.lower_order, lo,
                            what + " lower");
      }
    }
  }
}

TEST(GeomSimd, EveryLevelSkipsTheObserverAtEitherEnd) {
  // The observer is the first or the last point: the two key-build ranges
  // around it are [0, 0) + [1, n) or [0, n - 1) + [n, n).
  LevelGuard guard;
  for (Level level : supported_levels()) {
    ASSERT_TRUE(geom::simd::set_active_level(level));
    for (std::size_t n : kSizes) {
      if (n == 0) continue;
      const auto pts = make_random(n, 17u * n + 3u);
      for (const std::size_t i : {std::size_t{0}, n - 1}) {
        geom::VisibilityScratch scratch;
        run_build(pts, i, scratch);
        std::vector<std::size_t> seen;
        for (const auto& key : scratch.upper) seen.push_back(key.index);
        for (const auto& key : scratch.lower) seen.push_back(key.index);
        std::sort(seen.begin(), seen.end());
        std::vector<std::size_t> want;
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i) want.push_back(j);
        }
        EXPECT_EQ(seen, want) << "n=" << n << " i=" << i
                              << " level=" << geom::simd::to_string(level);
      }
    }
  }
}

TEST(GeomSimd, EveryLevelBuildsNoKeysWhenEveryPointCoincides) {
  // Every point sits on the observer, so every lane is skipped: a scratch
  // warmed by an earlier build must come back with all four vectors empty.
  LevelGuard guard;
  for (Level level : supported_levels()) {
    ASSERT_TRUE(geom::simd::set_active_level(level));
    for (std::size_t n : kSizes) {
      if (n == 0) continue;
      geom::VisibilityScratch scratch;
      run_build(make_random(64, 5), 0, scratch);
      ASSERT_FALSE(scratch.upper.empty());
      const std::vector<Vec2> pts(n, Vec2{1.5, -2.25});
      run_build(pts, n / 2, scratch);
      const std::string what =
          "n=" + std::to_string(n) +
          " level=" + std::string(geom::simd::to_string(level));
      EXPECT_TRUE(scratch.upper.empty()) << what;
      EXPECT_TRUE(scratch.lower.empty()) << what;
      EXPECT_TRUE(scratch.upper_order.empty()) << what;
      EXPECT_TRUE(scratch.lower_order.empty()) << what;
    }
  }
}

TEST(GeomSimd, EveryLevelBuildsKeysThatRebuildFromCoordinates) {
  // The visibility cache keeps only (akey, index) per robot and recomputes
  // diff and dist2 from the coordinates when it needs them
  // (detail::rebuild_key); repair's exact comparator, dist2 tie-break
  // included, is only the sort's if that key is the built one byte for
  // byte. So at every level each built key must equal make_key(p - o, j)
  // and survive the round trip through its index record.
  LevelGuard guard;
  for (Level level : supported_levels()) {
    ASSERT_TRUE(geom::simd::set_active_level(level));
    for (const InputFamily& family : kFamilies) {
      for (std::size_t n : kSizes) {
        if (n == 0) continue;
        const auto pts = family.make(n, 3u * n + 5u);
        const auto pt = [&pts](std::size_t j) { return pts[j]; };
        for (const std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
          geom::VisibilityScratch scratch;
          run_build(pts, i, scratch);
          const Vec2 o = pts[i];
          const std::string what =
              std::string(family.name) + " n=" + std::to_string(n) +
              " i=" + std::to_string(i) +
              " level=" + std::string(geom::simd::to_string(level));
          for (const auto* half : {&scratch.upper, &scratch.lower}) {
            for (const geom::AngularKey& key : *half) {
              const geom::AngularKey made =
                  geom::detail::make_key(pts[key.index] - o, key.index);
              EXPECT_EQ(std::memcmp(&made, &key, sizeof(key)), 0)
                  << what << " j=" << key.index << ": make_key differs";
              const geom::AngularKey rebuilt = geom::detail::rebuild_key(
                  pt, o, geom::detail::index_record(key));
              EXPECT_EQ(std::memcmp(&rebuilt, &key, sizeof(key)), 0)
                  << what << " j=" << key.index << ": rebuild_key differs";
            }
          }
        }
      }
    }
  }
}

TEST(GeomSimd, EveryLevelCullsBitIdentically) {
  LevelGuard guard;
  const auto levels = supported_levels();
  for (const InputFamily& family : kFamilies) {
    for (std::size_t n : kSizes) {
      if (n < 4) continue;
      const auto pts = family.make(n, 31u * n + 5u);
      // The Akl–Toussaint extreme quad, exactly as hull.cpp assembles it.
      std::size_t iw = 0, is = 0, ie = 0, in = 0;
      for (std::size_t j = 1; j < n; ++j) {
        if (pts[j].x < pts[iw].x) iw = j;
        if (pts[j].y < pts[is].y) is = j;
        if (pts[j].x > pts[ie].x) ie = j;
        if (pts[j].y > pts[in].y) in = j;
      }
      const Vec2 quad[4] = {pts[iw], pts[is], pts[ie], pts[in]};
      std::vector<std::uint8_t> ref(n, 0xcd);
      ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
      geom::simd::hull_cull_mask(pts.data(), n, quad, ref.data());
      for (Level level : levels) {
        if (level == Level::kScalar) continue;
        std::vector<std::uint8_t> got(n, 0xab);
        ASSERT_TRUE(geom::simd::set_active_level(level));
        geom::simd::hull_cull_mask(pts.data(), n, quad, got.data());
        EXPECT_EQ(ref, got)
            << family.name << " n=" << n
            << " level=" << geom::simd::to_string(level);
      }
    }
  }
}

TEST(GeomSimd, EveryLevelSortsRecordsCanonically) {
  LevelGuard guard;
  const auto levels = supported_levels();
  util::Prng rng(424242);
  for (std::size_t m : {0u, 1u, 50u, 95u, 96u, 97u, 300u, 4096u}) {
    // Diamond pseudo-angles: finite floats in [0, 2), heavy on ties.
    std::vector<std::uint64_t> records;
    records.reserve(m);
    for (std::size_t k = 0; k < m; ++k) {
      const float key = (k % 5 == 0)
                            ? static_cast<float>(k % 7) * 0.25f
                            : static_cast<float>(rng.uniform(0.0, 2.0));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &key, sizeof(key));
      records.push_back((bits << 32) | static_cast<std::uint32_t>(k));
    }
    std::vector<std::uint64_t> expected = records;
    std::sort(expected.begin(), expected.end());
    for (Level level : levels) {
      ASSERT_TRUE(geom::simd::set_active_level(level));
      std::vector<std::uint64_t> got = records;
      std::vector<std::uint64_t> tmp;
      geom::simd::sort_angular_records(got, tmp, 2.0f);
      EXPECT_EQ(expected, got)
          << "m=" << m << " level=" << geom::simd::to_string(level);
    }
  }
}

TEST(GeomSimd, EveryLevelClampsKeysAtMaxKeyIntoTheLastBucket) {
  // Keys exactly at max_key map one past the last bucket before the clamp;
  // keys at 0 fill the first. Both ends heavy, above the comparison-sort
  // cut-off, so the bucket scatter runs.
  LevelGuard guard;
  const auto levels = supported_levels();
  util::Prng rng(77);
  constexpr float kMax = 2.0f;
  for (std::size_t m : {96u, 97u, 200u, 4096u}) {
    std::vector<std::uint64_t> records;
    records.reserve(m);
    for (std::size_t k = 0; k < m; ++k) {
      const float key = k % 3 == 0   ? kMax
                        : k % 3 == 1 ? 0.0f
                                     : static_cast<float>(rng.uniform(0.0, 2.0));
      std::uint32_t bits = 0;
      std::memcpy(&bits, &key, sizeof(key));
      records.push_back((std::uint64_t{bits} << 32) | (m - k));
    }
    std::vector<std::uint64_t> expected = records;
    std::sort(expected.begin(), expected.end());
    for (Level level : levels) {
      ASSERT_TRUE(geom::simd::set_active_level(level));
      std::vector<std::uint64_t> got = records;
      std::vector<std::uint64_t> tmp;
      geom::simd::sort_angular_records(got, tmp, kMax);
      EXPECT_EQ(expected, got)
          << "m=" << m << " level=" << geom::simd::to_string(level);
    }
  }
}

/// Local views of generated configurations: robot `obs` at the origin of a
/// random frame, every robot's image in it (the observer first), truncated
/// to `n` points — the inputs Compute's scans see, at every remainder size.
std::vector<std::vector<Vec2>> local_views(std::uint64_t seed) {
  util::Prng rng(seed);
  std::vector<std::vector<Vec2>> views;
  for (const auto family : {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kGrid,
                            gen::ConfigFamily::kRingWithCore,
                            gen::ConfigFamily::kNearCollinear}) {
    const auto world = gen::generate(family, 40, seed);
    for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 13u, 40u}) {
      const std::size_t obs = rng.next_below(world.size());
      const auto frame = model::LocalFrame::random(world[obs], rng);
      std::vector<Vec2> view = {frame.to_local(world[obs])};
      for (std::size_t j = 0; view.size() < n && j < world.size(); ++j) {
        if (j != obs) view.push_back(frame.to_local(world[j]));
      }
      views.push_back(std::move(view));
    }
  }
  return views;
}

/// Hand-made degenerate inputs: duplicates of the origin, exact rays,
/// subnormal and huge coordinates, at sizes that leave every tail length.
std::vector<std::vector<Vec2>> degenerate_views() {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = 1e300;
  std::vector<std::vector<Vec2>> views;
  for (std::size_t n = 1; n <= 11; ++n) {
    std::vector<Vec2> origin_heavy, on_rays, subnormal, giant;
    for (std::size_t j = 0; j < n; ++j) {
      const double k = static_cast<double>(j);
      origin_heavy.push_back(j % 3 == 0 ? Vec2{} : Vec2{k, 1.0 - k});
      // Exact multiples of (1, 2) and (-3, 1): points exactly on two rays.
      on_rays.push_back(j % 2 == 0 ? Vec2{k, 2.0 * k} : Vec2{-3.0 * k, k});
      subnormal.push_back(Vec2{tiny * k, j % 2 == 0 ? tiny : -tiny * k});
      giant.push_back(Vec2{j % 2 == 0 ? huge : -huge * k, huge * (k - 5.0)});
    }
    views.push_back(std::move(origin_heavy));
    views.push_back(std::move(on_rays));
    views.push_back(std::move(subnormal));
    views.push_back(std::move(giant));
  }
  return views;
}

std::vector<std::vector<Vec2>> scan_inputs() {
  auto views = local_views(2024);
  for (auto& v : degenerate_views()) views.push_back(std::move(v));
  return views;
}

std::string describe(const std::vector<Vec2>& pts, Level level) {
  std::ostringstream out;
  out << "n=" << pts.size() << " level=" << geom::simd::to_string(level) << " pts=";
  for (std::size_t j = 0; j < pts.size() && j < 6; ++j) {
    out << "(" << pts[j].x << "," << pts[j].y << ")";
  }
  return out.str();
}

TEST(GeomSimd, EveryLevelFindsNearestIdentically) {
  LevelGuard guard;
  const auto levels = supported_levels();
  auto inputs = scan_inputs();
  // A NaN distance must never win, in any lane.
  inputs.push_back({{1, 1}, {std::numeric_limits<double>::quiet_NaN(), 0}, {3, 4},
                    {0.5, 0.25}, {2, 2}});
  int checked = 0;
  for (const auto& pts : inputs) {
    const std::size_t n = pts.size();
    for (const std::size_t subject : {std::size_t{0}, n / 2, n - 1, n}) {
      const Vec2 from = subject < n ? pts[subject] : Vec2{0.5, -0.25};
      ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
      const double ref = geom::simd::nearest_distance_sq(pts.data(), n, subject, from);
      for (Level level : levels) {
        ASSERT_TRUE(geom::simd::set_active_level(level));
        const double got = geom::simd::nearest_distance_sq(pts.data(), n, subject, from);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ref), std::bit_cast<std::uint64_t>(got))
            << describe(pts, level) << " subject=" << subject;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 400);
}

/// The line test's anchor loop, as nearly_collinear ran it inline: the
/// first index strictly farther than everything before it, from 0 at 0.
std::size_t farthest_reference(const std::vector<Vec2>& pts, Vec2 from) {
  std::size_t far = 0;
  double far_sq = 0.0;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    const double d = geom::distance_sq(from, pts[j]);
    if (d > far_sq) {
      far_sq = d;
      far = j;
    }
  }
  return far;
}

TEST(GeomSimd, EveryLevelFindsFarthestIdentically) {
  LevelGuard guard;
  const auto levels = supported_levels();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto inputs = scan_inputs();
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 40u}) {
    // Ties: the points cycle through four at distance 1 and four at
    // distance 2 from the origin, so every lane holds a tie of the maximum
    // and the first index must win.
    std::vector<Vec2> ties, with_nan, coincident, nan_origin;
    for (std::size_t j = 0; j < n; ++j) {
      const double r = (j / 4) % 2 == 0 ? 2.0 : 1.0;
      const Vec2 dirs[4] = {{r, 0}, {0, r}, {-r, 0}, {0, -r}};
      ties.push_back(dirs[j % 4]);
      // NaN points in the lanes, around genuine maxima.
      with_nan.push_back(j % 3 == 1 ? Vec2{nan, 1.0}
                                    : Vec2{static_cast<double>(j % 5), 0.5});
      coincident.push_back({3.5, -1.25});
      nan_origin.push_back(j == 0 ? Vec2{nan, nan} : Vec2{static_cast<double>(j), 1.0});
    }
    for (auto* v : {&ties, &with_nan, &coincident, &nan_origin}) inputs.push_back(*v);
  }
  int checked = 0;
  int nonzero = 0;
  for (const auto& pts : inputs) {
    const std::size_t n = pts.size();
    for (const Vec2 from : {n == 0 ? Vec2{} : pts[0], Vec2{}, Vec2{3.5, -1.25}}) {
      const std::size_t expected = farthest_reference(pts, from);
      if (expected != 0) ++nonzero;
      for (Level level : levels) {
        ASSERT_TRUE(geom::simd::set_active_level(level));
        EXPECT_EQ(geom::simd::farthest_index(pts.data(), n, from), expected)
            << describe(pts, level) << " from=(" << from.x << "," << from.y << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 500);
  EXPECT_GT(nonzero, 100);
}

TEST(GeomSimd, EveryLevelScansCorridorsIdentically) {
  LevelGuard guard;
  const auto levels = supported_levels();
  util::Prng rng(99);
  int hits = 0;
  int misses = 0;
  const auto compare = [&](const std::vector<Vec2>& pts, const geom::Segment& s,
                           double r, const std::size_t skip[3]) {
    ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
    const bool ref = geom::simd::any_within_segment(pts.data(), pts.size(), s, r, skip);
    (ref ? hits : misses) += 1;
    for (Level level : levels) {
      ASSERT_TRUE(geom::simd::set_active_level(level));
      EXPECT_EQ(ref, geom::simd::any_within_segment(pts.data(), pts.size(), s, r, skip))
          << describe(pts, level) << " r=" << r << " skip=" << skip[0] << ","
          << skip[1] << "," << skip[2];
    }
  };
  for (const auto& pts : scan_inputs()) {
    const std::size_t n = pts.size();
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t a = rng.next_below(n);
      const std::size_t b = rng.next_below(n);
      // Paths between view points (their ends are points of the view), a
      // zero-length path, and paths out of the view.
      const geom::Segment paths[] = {
          {pts[a], pts[b]},
          {pts[a], pts[a]},
          {pts[a], pts[a] + Vec2{rng.uniform(-5, 5), rng.uniform(-5, 5)}}};
      for (const auto& path : paths) {
        for (const double r : {0.0, 1e-3, 0.5, 3.0, 1e300}) {
          const std::size_t skip[3] = {a, b, rng.next_below(n + 1)};
          compare(pts, path, r, skip);
          const std::size_t none[3] = {n, n, n};
          compare(pts, path, r, none);
        }
      }
    }
  }
  // One point on the path at each position j, the rest far away: skipping
  // j must clear the corridor whatever lane (or tail slot) j falls in.
  for (std::size_t n = 1; n <= 13; ++n) {
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<Vec2> pts;
      for (std::size_t k = 0; k < n; ++k) {
        pts.push_back(k == j ? Vec2{1.0, 0.0} : Vec2{static_cast<double>(k), 50.0});
      }
      const geom::Segment path{{0.0, 0.0}, {2.0, 0.0}};
      const std::size_t keep[3] = {n, n, n};
      const std::size_t drop[3] = {n, j, n};
      for (const double r : {0.0, 0.1}) {
        ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
        ASSERT_TRUE(geom::simd::any_within_segment(pts.data(), n, path, r, keep));
        ASSERT_FALSE(geom::simd::any_within_segment(pts.data(), n, path, r, drop));
        compare(pts, path, r, keep);
        compare(pts, path, r, drop);
      }
    }
  }
  EXPECT_GT(hits, 100);
  EXPECT_GT(misses, 100);
}

TEST(GeomSimd, EveryLevelSkipsConeBlocksIdentically) {
  LevelGuard guard;
  const auto levels = supported_levels();
  util::Prng rng(5);
  int skipped = 0;
  const auto compare = [&](const std::vector<Vec2>& pts, std::size_t i, Vec2 o,
                           Vec2 right, Vec2 left) {
    ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
    const std::size_t ref = geom::simd::cone_skip(pts.data(), pts.size(), i, o, right, left);
    skipped += static_cast<int>(ref - i);
    for (Level level : levels) {
      ASSERT_TRUE(geom::simd::set_active_level(level));
      EXPECT_EQ(ref, geom::simd::cone_skip(pts.data(), pts.size(), i, o, right, left))
          << describe(pts, level) << " i=" << i;
    }
  };
  for (const auto& pts : scan_inputs()) {
    const std::size_t n = pts.size();
    const Vec2 o = pts[0];
    for (int trial = 0; trial < 6; ++trial) {
      const Vec2 a = pts[rng.next_below(n)];
      const Vec2 b = pts[rng.next_below(n)];
      // Both orientations of the cone, and the one-ray cones on its rays
      // (rays through view points, so some points lie exactly on them).
      const std::pair<Vec2, Vec2> cones[] = {{a, b}, {b, a}, {a, a}, {b, b}};
      for (const auto& [right, left] : cones) {
        for (std::size_t i = 0; i <= n; ++i) compare(pts, i, o, right, left);
      }
    }
  }
  // Every point certified inside a wide cone except one at position j, on
  // a cone ray or at the apex: each level must stop exactly at j.
  for (std::size_t n = 1; n <= 13; ++n) {
    for (std::size_t j = 0; j < n; ++j) {
      // The cone from ray (2, 1) to ray (-1, 3); the odd point lies on the
      // right ray, at the apex, or on the left ray.
      for (const Vec2 odd : {Vec2{4.0, 2.0}, Vec2{0.0, 0.0}, Vec2{-2.0, 6.0}}) {
        std::vector<Vec2> pts;
        for (std::size_t k = 0; k < n; ++k) {
          pts.push_back(k == j ? odd : Vec2{0.5 + 0.01 * static_cast<double>(k), 1.0});
        }
        ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
        ASSERT_EQ(geom::simd::cone_skip(pts.data(), n, 0, {}, {2, 1}, {-1, 3}), j);
        compare(pts, 0, {}, {2, 1}, {-1, 3});
      }
    }
  }
  EXPECT_GT(skipped, 1000);
}

TEST(GeomSimd, ActiveLevelRoundTripsThroughStrings) {
  LevelGuard guard;
  for (Level level : supported_levels()) {
    ASSERT_TRUE(geom::simd::set_active_level(level));
    EXPECT_EQ(geom::simd::active_level(), level);
    const auto parsed =
        geom::simd::level_from_string(geom::simd::to_string(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
}

TEST(GeomSimd, UnsupportedLevelIsRefusedAndLeavesTheActiveLevel) {
  // SSE2 and NEON kernels exist for different architectures, so at least
  // one level is always refused.
  LevelGuard guard;
  const auto levels = supported_levels();
  ASSERT_TRUE(geom::simd::set_active_level(Level::kScalar));
  int refused = 0;
  for (Level level : {Level::kSse2, Level::kNeon, Level::kAvx2}) {
    if (std::find(levels.begin(), levels.end(), level) != levels.end()) continue;
    EXPECT_FALSE(geom::simd::set_active_level(level))
        << geom::simd::to_string(level);
    EXPECT_EQ(geom::simd::active_level(), Level::kScalar);
    ++refused;
  }
  EXPECT_GE(refused, 1);
  for (const char* name : {"", "AVX2", "avx512", "sse"}) {
    EXPECT_FALSE(geom::simd::level_from_string(name).has_value()) << name;
  }
}

TEST(GeomSimd, BestSupportedLevelIsTheWidestAccepted) {
  LevelGuard guard;
  const auto levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  EXPECT_EQ(geom::simd::best_supported_level(), levels.back());
  EXPECT_EQ(geom::simd::active_level(), levels.back());
}

TEST(GeomSimd, EveryLevelAnswersScansWithNothingToScan) {
  // The only point is the subject or skipped, or the scan starts at the
  // end: no level may read a lane beyond n.
  LevelGuard guard;
  const std::vector<Vec2> pts = {{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const geom::Segment path{{-1.0, 0.0}, {4.0, 1.0}};
  const std::size_t skip_all[3] = {0, 1, 2};
  for (Level level : supported_levels()) {
    ASSERT_TRUE(geom::simd::set_active_level(level));
    const std::string what(geom::simd::to_string(level));
    EXPECT_EQ(geom::simd::nearest_distance_sq(pts.data(), 1, 0, {0.0, 0.0}),
              std::numeric_limits<double>::infinity())
        << what;
    EXPECT_EQ(geom::simd::nearest_distance_sq(pts.data(), 0, 0, {0.0, 0.0}),
              std::numeric_limits<double>::infinity())
        << what;
    EXPECT_FALSE(geom::simd::any_within_segment(pts.data(), pts.size(), path,
                                                1e9, skip_all))
        << what;
    EXPECT_EQ(geom::simd::farthest_index(pts.data(), 0, {9.0, 9.0}), 0u) << what;
    for (std::size_t n = 0; n <= pts.size(); ++n) {
      EXPECT_EQ(geom::simd::cone_skip(pts.data(), n, n, {}, {1.0, 0.0},
                                      {0.0, 1.0}),
                n)
          << what;
    }
  }
}

}  // namespace
}  // namespace lumen
