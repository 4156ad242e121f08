// Steady-state allocation audit for the Look path.
//
// The engines snapshot the world on every Look; the scratch overloads of
// geom::visible_from and model::build_snapshot, and the visibility cache's
// replay and repair paths, must therefore be heap-free once their buffers
// are warm, or a long campaign spends its time in the allocator. The test TU replaces
// global operator new/delete with counting versions and asserts zero
// allocations across warmed-up calls.
#include "geom/visibility.hpp"
#include "geom/visibility_cache.hpp"
#include "model/frame.hpp"
#include "model/snapshot.hpp"
#include "simd_levels.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

namespace {

std::size_t g_alloc_count = 0;
std::size_t g_alloc_bytes = 0;

}  // namespace

// noinline: once GCC inlines a replaced operator into a caller it sees the
// malloc/free pairing behind new/delete and reports it as mismatched.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lumen {
namespace {

using geom::Vec2;

std::vector<Vec2> ring_of_points(std::size_t n) {
  util::Prng rng(99);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Vec2{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
  }
  return pts;
}

/// The split coordinate arrays sim::WorldState feeds the Look path.
struct SplitPoints {
  explicit SplitPoints(std::span<const Vec2> pts) {
    for (const Vec2 p : pts) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
  }
  std::vector<double> xs;
  std::vector<double> ys;
};

TEST(LookPathAllocations, CachedLookSnapshotIsAllocationFree) {
  // The ExecutionCore Look path with the visibility cache on: cache lookup
  // (rebuild, store, then replay against an unchanged world) followed by
  // the snapshot mapping tail.
  const auto pts = ring_of_points(64);
  const SplitPoints split(pts);
  const std::vector<model::Light> lights(pts.size(), model::Light::kOff);
  const std::vector<std::uint32_t> write_log;
  util::Prng frame_rng(7);
  const model::LocalFrame frame = model::LocalFrame::random(pts[0], frame_rng);
  geom::VisibilityCache cache;
  cache.reset(pts.size(), std::size_t{1} << 20);
  ASSERT_EQ(cache.cached_observers(), pts.size());
  model::SnapshotScratch scratch;
  model::Snapshot snap;
  const auto look = [&](std::size_t i) {
    cache.visible_from(split.xs, split.ys, i, write_log, /*moving_count=*/0,
                       scratch.visibility, scratch.visible_ids);
    model::fill_snapshot(split.xs, split.ys, lights, i, scratch.visible_ids,
                         frame, snap);
  };
  // Warm up: two rebuilds per observer admit every entry to the cache.
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < pts.size(); ++i) look(i);
  }
  const std::uint64_t replays_before = cache.replays();
  const std::size_t before = g_alloc_count;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      look(i);
      ASSERT_GT(snap.visible_count(), 0u);
    }
  }
  EXPECT_EQ(g_alloc_count, before)
      << "the warmed cached Look path must not touch the heap";
  EXPECT_EQ(cache.replays() - replays_before, 3 * pts.size());
}

TEST(LookPathAllocations, CacheRepairIsAllocationFree) {
  // A stored entry holds room for the whole swarm, so a warmed repair never
  // reallocates: not when a committed move carries a robot across the
  // observer's half boundary (one half grows), nor when it unblocks a
  // hidden robot (the visible set grows).
  auto pts = ring_of_points(64);
  pts[0] = Vec2{0.0, 0.0};    // The observer.
  pts[1] = Vec2{1.5, 1.0};    // Blocks robot 2 exactly: all three are
  pts[2] = Vec2{3.0, 2.0};    // collinear in exact arithmetic.
  pts[3] = Vec2{-2.0, -1.0};  // In the observer's lower half.
  SplitPoints split(pts);
  std::vector<std::uint32_t> write_log;
  write_log.reserve(8);  // The test's own log must not count.
  geom::VisibilityCache cache;
  cache.reset(pts.size(), std::size_t{1} << 20);
  geom::VisibilityScratch scratch;
  std::vector<std::size_t> out;
  const auto look = [&] {
    cache.visible_from(split.xs, split.ys, 0, write_log, /*moving_count=*/0,
                       scratch, out);
  };
  const auto commit = [&](std::uint32_t r, Vec2 p) {
    split.xs[r] = p.x;
    split.ys[r] = p.y;
    write_log.push_back(r);
  };
  // Warm up: two rebuilds admit and store the entry, and a repair that
  // changes nothing (robot 5 recommits its own position) warms the
  // dirty-set scratch.
  look();
  look();
  commit(5, pts[5]);
  look();
  ASSERT_EQ(cache.repairs(), 1u);
  const std::size_t visible_before = out.size();
  ASSERT_EQ(visible_before, pts.size() - 2);

  std::size_t before = g_alloc_count;
  commit(3, Vec2{2.0, 1.0});  // Reflected through the observer.
  look();
  EXPECT_EQ(g_alloc_count, before)
      << "a repair that moves a robot into the other half allocated";
  EXPECT_EQ(out.size(), visible_before);

  before = g_alloc_count;
  commit(1, Vec2{1.5, -1.0});  // The blocker steps aside: 2 comes into view.
  look();
  EXPECT_EQ(g_alloc_count, before)
      << "a repair that grows the visible set allocated";
  EXPECT_EQ(out.size(), visible_before + 1);

  EXPECT_EQ(cache.repairs(), 3u);
  EXPECT_EQ(cache.rebuilds(), 2u);
  std::vector<std::size_t> want;
  geom::visible_from(split.xs, split.ys, 0, scratch, want);
  EXPECT_EQ(out, want);
}

TEST(LookPathAllocations, VisibleFromSoAOverloadIsAllocationFree) {
  // simd.cpp sizes the key build's outputs for every dispatch level, so
  // each level must be heap-free once warm.
  LevelGuard guard;
  const auto pts = ring_of_points(64);
  const SplitPoints split(pts);
  const std::vector<double>& xs = split.xs;
  const std::vector<double>& ys = split.ys;
  for (const geom::simd::Level level : supported_levels()) {
    SCOPED_TRACE(std::string(geom::simd::to_string(level)));
    ASSERT_TRUE(geom::simd::set_active_level(level));
    geom::VisibilityScratch scratch;
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      geom::visible_from(xs, ys, i, scratch, out);
    }
    const std::size_t before = g_alloc_count;
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < pts.size(); ++i) {
        geom::visible_from(xs, ys, i, scratch, out);
        ASSERT_FALSE(out.empty());
      }
    }
    EXPECT_EQ(g_alloc_count, before)
        << "the warm SoA visible_from must not touch the heap";
  }
}

TEST(LookPathAllocations, ColdSoAKeyBuildReservesTheExactSplit) {
  // The key build counts the upper/lower split before sizing, so a COLD
  // call allocates the true split (~32+8 bytes per point across the four
  // scratch vectors) plus the sort/output workspace — NOT a 2x-of-n guess
  // that reserves n keys for both halves. The bound below sits between
  // the two: exact sizing passes with plenty of headroom, a both-halves
  // reserve(n) (64 bytes/point for the key vectors alone, ~112 total) trips
  // it. The sizing is shared by every dispatch level, so each is checked.
  LevelGuard guard;
  const std::size_t n = 1024;
  const SplitPoints split(ring_of_points(n));
  for (const geom::simd::Level level : supported_levels()) {
    SCOPED_TRACE(std::string(geom::simd::to_string(level)));
    ASSERT_TRUE(geom::simd::set_active_level(level));
    geom::VisibilityScratch scratch;
    std::vector<std::size_t> out;
    const std::size_t before = g_alloc_bytes;
    geom::visible_from(split.xs, split.ys, 0, scratch, out);
    const std::size_t cold_bytes = g_alloc_bytes - before;
    EXPECT_LT(cold_bytes, 75 * n)
        << "cold SoA visible_from allocated " << cold_bytes
        << " bytes for n=" << n << "; the key build is over-reserving";
  }
}

TEST(LookPathAllocations, BuildSnapshotScratchOverloadIsAllocationFree) {
  // The uncached ExecutionCore Look path: the SoA scratch build_snapshot.
  const auto pts = ring_of_points(64);
  const SplitPoints split(pts);
  const std::vector<model::Light> lights(pts.size(), model::Light::kOff);
  util::Prng frame_rng(7);
  model::SnapshotScratch scratch;
  model::Snapshot snap;
  // Warm up: every observer once, so visible-list capacities peak.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const model::LocalFrame frame = model::LocalFrame::random(pts[i], frame_rng);
    model::build_snapshot(split.xs, split.ys, lights, i, frame, scratch, snap);
  }
  const std::size_t before = g_alloc_count;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const model::LocalFrame frame =
          model::LocalFrame::random(pts[i], frame_rng);
      model::build_snapshot(split.xs, split.ys, lights, i, frame, scratch,
                            snap);
      ASSERT_GT(snap.visible_count(), 0u);
    }
  }
  EXPECT_EQ(g_alloc_count, before)
      << "the warmed Look snapshot path must not touch the heap";
}

TEST(LookPathAllocations, AllocationCounterActuallyCounts) {
  const std::size_t before = g_alloc_count;
  std::vector<int>* v = new std::vector<int>(100);
  EXPECT_GT(g_alloc_count, before);
  delete v;
}

}  // namespace
}  // namespace lumen
