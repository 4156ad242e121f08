// Incremental visibility: the cache must be indistinguishable, bit for
// bit, from the one-shot kernel — and runs with caching on, off, or using
// a shared cross-run arena must produce identical RunResults.
//
// Two layers of evidence:
//  1. A direct property test drives geom::VisibilityCache through random
//     interleavings of committed moves (some reflecting a robot through
//     an observer, so its key changes half-planes), deaths (which commit
//     nothing), transient in-flight Looks and repeated observer Looks,
//     checking every answer against the naive SoA kernel on the same
//     arrays. This walks all four paths (replay / repair / rebuild /
//     transient) plus the admission warm-up and the budget fall-through,
//     and repairs observers whose keys all lie in one half-plane.
//  2. End-to-end runs on all three schedulers, pool sizes 1 and 4, with
//     and without fault plans, digesting the full RunResult for cache-on
//     vs cache-off and private-arena vs shared-arena equality.
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "geom/visibility.hpp"
#include "geom/visibility_cache.hpp"
#include "sim/look_arena.hpp"
#include "sim/run.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace lumen::sim {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t bits(double d) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::uint64_t run_digest(const RunResult& r) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, r.converged ? 1 : 0);
  h = mix(h, static_cast<std::uint64_t>(r.outcome));
  h = mix(h, bits(r.final_time));
  h = mix(h, r.epochs);
  h = mix(h, r.rounds);
  h = mix(h, r.total_cycles);
  h = mix(h, r.total_moves);
  h = mix(h, bits(r.total_distance));
  for (const auto& p : r.final_positions) {
    h = mix(h, bits(p.x));
    h = mix(h, bits(p.y));
  }
  for (const model::Light l : r.final_lights) {
    h = mix(h, static_cast<std::uint64_t>(l));
  }
  for (const auto& m : r.moves) {
    h = mix(h, m.robot);
    h = mix(h, bits(m.t0));
    h = mix(h, bits(m.t1));
    h = mix(h, bits(m.from.x));
    h = mix(h, bits(m.from.y));
    h = mix(h, bits(m.to.x));
    h = mix(h, bits(m.to.y));
  }
  for (const std::uint8_t c : r.crashed) h = mix(h, c);
  h = mix(h, r.faults.crashes);
  h = mix(h, r.faults.corrupted_reads);
  h = mix(h, r.faults.dropped_observations);
  h = mix(h, r.faults.perturbed_observations);
  return h;
}

/// Drives one cache instance through `steps` random events and checks
/// every Look against the naive kernel. `budget` scales the cached
/// observer prefix (a small budget exercises the uncached fall-through).
void churn_against_oracle(std::uint64_t seed, std::size_t n,
                          std::size_t budget, int steps) {
  util::Prng rng(seed);
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(-10.0, 10.0);
    ys[i] = rng.uniform(-10.0, 10.0);
  }
  std::vector<std::uint32_t> write_log;
  geom::VisibilityCache cache;
  cache.reset(n, budget);
  geom::VisibilityScratch cache_scratch;
  geom::VisibilityScratch naive_scratch;
  std::vector<std::size_t> got;
  std::vector<std::size_t> want;
  // In-flight interpolation buffers for the transient path.
  std::vector<double> fly_xs;
  std::vector<double> fly_ys;
  for (int step = 0; step < steps; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.08) {
      // Reflect a robot through a frequently-Looking observer: its key
      // changes half-planes there, so that observer's next repair moves it
      // across the split between the stored halves.
      const std::size_t observer = rng.next_below((n / 4) + 1);
      const auto r = static_cast<std::uint32_t>(rng.next_below(n));
      xs[r] = 2.0 * xs[observer] - xs[r];
      ys[r] = 2.0 * ys[observer] - ys[r];
      write_log.push_back(r);
      continue;
    }
    if (roll < 0.25) {
      // Commit a move: the ONLY event that appends to the write log.
      const auto r = static_cast<std::uint32_t>(rng.next_below(n));
      xs[r] = rng.uniform(-10.0, 10.0);
      ys[r] = rng.uniform(-10.0, 10.0);
      write_log.push_back(r);
      continue;
    }
    if (roll < 0.30) {
      // A burst of commits (forces the rebuild path on the next Look of a
      // long-idle observer: dirty set above the repair bound).
      const std::size_t burst = 1 + rng.next_below(n / 2);
      for (std::size_t k = 0; k < burst; ++k) {
        const auto r = static_cast<std::uint32_t>(rng.next_below(n));
        xs[r] = rng.uniform(-10.0, 10.0);
        ys[r] = rng.uniform(-10.0, 10.0);
        write_log.push_back(r);
      }
      continue;
    }
    if (roll < 0.40) {
      // Transient Look: someone is mid-move, coordinates interpolated.
      // Deaths commit nothing, so this doubles as the crash model — a
      // crashed robot's position simply stops appearing in the log.
      fly_xs.assign(xs.begin(), xs.end());
      fly_ys.assign(ys.begin(), ys.end());
      const std::size_t mover = rng.next_below(n);
      fly_xs[mover] += rng.uniform(-0.5, 0.5);
      fly_ys[mover] += rng.uniform(-0.5, 0.5);
      const std::size_t observer = rng.next_below(n);
      cache.visible_from(fly_xs, fly_ys, observer, write_log,
                         /*moving_count=*/1, cache_scratch, got);
      geom::visible_from(fly_xs, fly_ys, observer, naive_scratch, want);
      ASSERT_EQ(got, want) << "transient look, observer " << observer
                           << ", step " << step;
      continue;
    }
    // Committed Look. Biasing toward low observers revisits cached entries
    // often enough to pass admission and hit replay (no commits since) and
    // repair (few commits since).
    const std::size_t observer = roll < 0.8
                                     ? rng.next_below((n / 4) + 1)
                                     : rng.next_below(n);
    cache.visible_from(xs, ys, observer, write_log, /*moving_count=*/0,
                       cache_scratch, got);
    geom::visible_from(xs, ys, observer, naive_scratch, want);
    ASSERT_EQ(got, want) << "committed look, observer " << observer
                         << ", step " << step;
  }
  // The churn above must actually have exercised the incremental paths,
  // or the property is vacuous.
  EXPECT_GT(cache.rebuilds(), 0u);
  if (budget >= n * n * geom::VisibilityCache::kBytesPerRobot) {
    EXPECT_GT(cache.replays(), 0u) << "full-budget churn never replayed";
    EXPECT_GT(cache.repairs(), 0u) << "full-budget churn never repaired";
  }
}

TEST(IncrementalVisibilityProperty, CacheMatchesNaiveOracleUnderChurn) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    churn_against_oracle(seed, 48, /*budget=*/256u << 20, /*steps=*/600);
  }
}

TEST(IncrementalVisibilityProperty, RepairsObserversWithEveryKeyInOneHalf) {
  // Observer 0 sits below the whole swarm and observer 1 above it, so every
  // key of 1 lies in its lower half, and every key of 0 in its upper half
  // until robots that drop below observer 0 start to fill its lower one:
  // repairs run with one stored half empty, and cross into it.
  const std::size_t n = 32;
  util::Prng rng(41);
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = rng.uniform(-10.0, 10.0);
    ys[j] = rng.uniform(-10.0, 10.0);
  }
  xs[0] = 0.0;
  ys[0] = -20.0;
  xs[1] = 0.0;
  ys[1] = 20.0;
  std::vector<std::uint32_t> write_log;
  geom::VisibilityCache cache;
  cache.reset(n, 256u << 20);
  geom::VisibilityScratch cache_scratch;
  geom::VisibilityScratch naive_scratch;
  std::vector<std::size_t> got;
  std::vector<std::size_t> want;
  for (int step = 0; step < 400; ++step) {
    const auto r = static_cast<std::uint32_t>(2 + rng.next_below(n - 2));
    xs[r] = rng.uniform(-10.0, 10.0);
    ys[r] = rng.next_double() < 0.1 ? -25.0 : rng.uniform(-10.0, 10.0);
    write_log.push_back(r);
    for (const std::size_t observer : {std::size_t{0}, std::size_t{1}}) {
      cache.visible_from(xs, ys, observer, write_log, /*moving_count=*/0,
                         cache_scratch, got);
      geom::visible_from(xs, ys, observer, naive_scratch, want);
      ASSERT_EQ(got, want) << "observer " << observer << ", step " << step;
    }
  }
  // Two admission rebuilds per observer, then one repair per Look.
  EXPECT_EQ(cache.rebuilds(), 4u);
  EXPECT_EQ(cache.repairs(), 2u * 400u - 4u);
}

TEST(IncrementalVisibilityProperty, SmallBudgetFallsThroughToKernel) {
  // Budget for only ~8 of 48 observers: indices past the cap must still be
  // answered correctly by the one-shot fall-through.
  const std::size_t n = 48;
  const std::size_t budget = 8 * n * geom::VisibilityCache::kBytesPerRobot;
  churn_against_oracle(7, n, budget, 600);
}

TEST(IncrementalVisibilityProperty, ZeroBudgetDisablesCaching) {
  geom::VisibilityCache cache;
  cache.reset(16, 0);
  EXPECT_EQ(cache.cached_observers(), 0u);
  churn_against_oracle(5, 16, 0, 200);
}

struct RunCase {
  const char* label;
  const char* algorithm;
  SchedulerKind scheduler;
  std::size_t n;
  std::uint64_t seed;
  bool with_faults;
};

const RunCase kRunCases[] = {
    {"fsync", "ssync-parallel", SchedulerKind::kFsync, 20, 3, false},
    {"ssync", "ssync-parallel", SchedulerKind::kSsync, 20, 5, false},
    {"async", "async-log", SchedulerKind::kAsync, 14, 7, false},
    {"fsync-faults", "ssync-parallel", SchedulerKind::kFsync, 20, 3, true},
    {"ssync-faults", "ssync-parallel", SchedulerKind::kSsync, 20, 5, true},
    {"async-faults", "async-log", SchedulerKind::kAsync, 14, 7, true},
};

RunResult run_case(const RunCase& c, std::size_t cache_budget,
                   util::ThreadPool* pool, LookArena* arena) {
  RunConfig config;
  config.scheduler = c.scheduler;
  config.seed = c.seed;
  config.pool = pool;
  config.arena = arena;
  config.visibility_cache_budget = cache_budget;
  if (c.with_faults) {
    config.fault.crash.count = 2;
    config.fault.crash.rate = 0.02;
    config.fault.light.probability = 0.05;
    config.fault.noise.sigma = 1e-4;
    config.fault.noise.dropout = 0.02;
  }
  const auto initial =
      gen::generate(gen::ConfigFamily::kUniformDisk, c.n, c.seed);
  const auto algo = core::make_algorithm(c.algorithm);
  return run_simulation(*algo, initial, config);
}

TEST(IncrementalVisibilityRuns, CacheOnEqualsCacheOffEverywhere) {
  util::ThreadPool pool4{4};
  for (const RunCase& c : kRunCases) {
    const std::uint64_t off = run_digest(run_case(c, 0, nullptr, nullptr));
    const std::uint64_t on =
        run_digest(run_case(c, 256u << 20, nullptr, nullptr));
    EXPECT_EQ(on, off) << c.label << " serial";
    const std::uint64_t pooled =
        run_digest(run_case(c, 256u << 20, &pool4, nullptr));
    EXPECT_EQ(pooled, off) << c.label << " pool=4";
  }
}

TEST(IncrementalVisibilityRuns, TinyCacheBudgetIsStillBitIdentical) {
  // A budget that caches only a fraction of the swarm mixes cached and
  // fall-through observers inside one run.
  for (const RunCase& c : kRunCases) {
    const std::uint64_t off = run_digest(run_case(c, 0, nullptr, nullptr));
    const std::size_t tiny =
        4 * c.n * geom::VisibilityCache::kBytesPerRobot;
    EXPECT_EQ(run_digest(run_case(c, tiny, nullptr, nullptr)), off)
        << c.label;
  }
}

TEST(IncrementalVisibilityRuns, SharedArenaAcrossRunsIsBitIdentical) {
  // The campaign pattern: one arena reused for every cell. Back-to-back
  // runs with the shared arena must match private-arena runs exactly, and
  // the arena's retained capacity must not leak state between them.
  LookArena shared;
  for (const RunCase& c : kRunCases) {
    const std::uint64_t expected =
        run_digest(run_case(c, 256u << 20, nullptr, nullptr));
    EXPECT_EQ(run_digest(run_case(c, 256u << 20, nullptr, &shared)), expected)
        << c.label << " first shared-arena run";
    EXPECT_EQ(run_digest(run_case(c, 256u << 20, nullptr, &shared)), expected)
        << c.label << " repeat on warm arena";
  }
}

}  // namespace
}  // namespace lumen::sim
