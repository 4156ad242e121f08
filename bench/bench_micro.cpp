// E7 — substrate microbenchmarks (google-benchmark).
//
// Throughput of the kernels everything else is built on: robust orientation
// predicate (filtered vs forced-exact), convex hull, the single-observer
// angular sweep (warmed scratch, allocation-counted), whole-graph
// obstructed visibility serial vs pooled (vs the O(n^3) oracle), snapshot
// construction (allocating vs scratch-reusing, with a heap-allocation
// counter), one full SSYNC round serial vs pooled, one full ASYNC engine
// run per size, and two of Compute's per-view scans (the corner test and
// the exit-corridor test).
//
// bench/baselines/seed_bench_micro.json holds the pre-kernel-rewrite
// numbers; bench/compare_bench.py gates CI on regressions against the
// committed baseline.
//
// Output: unless --benchmark_out is passed explicitly, results are also
// written as machine-readable JSON to bench_micro.json (console output
// stays human-readable); CI archives the JSON artifact.
#include <benchmark/benchmark.h>

#include "core/registry.hpp"
#include "core/view.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "model/snapshot.hpp"
#include "sim/run.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

// Heap-allocation counter for the zero-allocation claims: every global new
// in this binary bumps the counter; benchmarks report the per-iteration
// delta as a counter column (and in the JSON). Atomic because the pooled
// benchmarks allocate from worker threads (relaxed: only totals matter).
namespace {
std::atomic<std::size_t> g_alloc_count{0};

std::size_t alloc_count() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

// GCC inlines these replacements into google-benchmark's static
// initializers and then flags free() on a new-pointer; the malloc/free
// pairing across the replaced operators is intentional.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using lumen::geom::Vec2;

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  lumen::util::Prng rng{seed};
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
  }
  return pts;
}

void BM_Orient2dFiltered(benchmark::State& state) {
  const auto pts = random_points(3072, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const int s = lumen::geom::orient2d(pts[i], pts[i + 1], pts[i + 2]);
    benchmark::DoNotOptimize(s);
    i = (i + 3) % 3069;
  }
}
BENCHMARK(BM_Orient2dFiltered);

void BM_Orient2dExactPath(benchmark::State& state) {
  // Collinear triples force the exact expansion fallback.
  const Vec2 a{0.1, 0.2}, b{0.2, 0.4}, c{0.4, 0.8};
  for (auto _ : state) {
    const int s = lumen::geom::detail::orient2d_exact_sign(a, b, c);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Orient2dExactPath);

void BM_ConvexHull(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto hull = lumen::geom::convex_hull_indices(pts);
    benchmark::DoNotOptimize(hull);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexHull)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_VisibleFromSoA(benchmark::State& state) {
  // Single-observer angular sweep on warmed scratch — the exact kernel one
  // Look executes, over the split arrays sim::WorldState feeds it. The
  // counter column pins the zero-allocation claim for the steady-state
  // Look path.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 3);
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = pts[j].x;
    ys[j] = pts[j].y;
  }
  lumen::geom::VisibilityScratch scratch;
  std::vector<std::size_t> out;
  lumen::geom::visible_from(xs, ys, 0, scratch, out);  // Warm.
  const std::size_t allocs_before = alloc_count();
  std::size_t i = 0;
  for (auto _ : state) {
    lumen::geom::visible_from(xs, ys, i, scratch, out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % n;
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VisibleFromSoA)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(65536)
    ->Complexity();

void BM_BuildKeys(benchmark::State& state) {
  // The batched SoA key build in isolation — the stage the SIMD dispatch
  // vectorizes (subtraction, half-plane split, diamond key, presort
  // records). Runs at whatever level the dispatcher selected; set
  // LUMEN_SIMD=scalar|sse2|avx2 to pin one. The context section records
  // the level this binary actually ran.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 3);
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = pts[j].x;
    ys[j] = pts[j].y;
  }
  lumen::geom::VisibilityScratch scratch;
  const lumen::geom::Vec2 o{xs[0], ys[0]};
  lumen::geom::simd::build_keys_soa(xs.data(), ys.data(), n, 0, o, scratch);
  const std::size_t allocs_before = alloc_count();
  std::size_t i = 0;
  for (auto _ : state) {
    lumen::geom::simd::build_keys_soa(xs.data(), ys.data(), n, i,
                                      {xs[i], ys[i]}, scratch);
    benchmark::DoNotOptimize(scratch.upper.data());
    benchmark::DoNotOptimize(scratch.lower.data());
    i = (i + 1) % n;
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildKeys)->Arg(256)->Arg(4096)->Arg(65536)->Complexity(benchmark::oN);

void BM_HullCull(benchmark::State& state) {
  // The batched Akl–Toussaint certify-only cull in isolation: one mask
  // sweep over n points against the coordinate-extreme quad.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 2);
  std::size_t iw = 0, ie = 0, is = 0, in = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (pts[j].x < pts[iw].x) iw = j;
    if (pts[j].x > pts[ie].x) ie = j;
    if (pts[j].y < pts[is].y) is = j;
    if (pts[j].y > pts[in].y) in = j;
  }
  const Vec2 quad[4] = {pts[iw], pts[is], pts[ie], pts[in]};
  std::vector<std::uint8_t> inside(n);
  for (auto _ : state) {
    lumen::geom::simd::hull_cull_mask(pts.data(), n, quad, inside.data());
    benchmark::DoNotOptimize(inside.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HullCull)->Arg(256)->Arg(4096)->Arg(65536)->Complexity(benchmark::oN);

void BM_CornerTest(benchmark::State& state) {
  // build_view of a Corner robot's Look: n visible points in one open
  // half-plane, delivered in angular sweep order (the order in which the
  // corner test's cone would widen at every point).
  const auto n = static_cast<std::size_t>(state.range(0));
  lumen::util::Prng rng{6};
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < n; ++j) {
    pts.push_back({rng.uniform(-100, 100), rng.uniform(1, 100)});
  }
  std::sort(pts.begin(), pts.end(), [](Vec2 a, Vec2 b) {
    return lumen::geom::orient2d(Vec2{}, a, b) > 0;
  });
  lumen::model::Snapshot snap;
  snap.reset(lumen::model::Light::kCorner);
  for (const Vec2 p : pts) snap.push_visible(p, lumen::model::Light::kCorner);
  for (auto _ : state) {
    const auto view = lumen::core::build_view(snap);
    benchmark::DoNotOptimize(view.role);
  }
}
BENCHMARK(BM_CornerTest)->Arg(512)->Arg(2048);

void BM_CorridorScan(benchmark::State& state) {
  // The exit planner's corridor test over a whole view: a path no point
  // comes near, so every point is certified out of the corridor.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 4);
  const lumen::geom::Segment path{{-100, 150}, {100, 160}};
  const std::size_t skip[3] = {0, 1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lumen::geom::simd::any_within_segment(pts.data(), n, path, 0.5, skip));
  }
}
BENCHMARK(BM_CorridorScan)->Arg(512)->Arg(2048);

void BM_ComputeVisibility(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto g = lumen::geom::compute_visibility(pts);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeVisibility)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_ComputeVisibilityPooled(benchmark::State& state) {
  // Same sweep with the observer loop fanned over a worker pool (one worker
  // per hardware thread). On a single-core host this measures the fan-out
  // overhead, not a speedup; pair with BM_ComputeVisibility to see both.
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 3);
  lumen::util::ThreadPool pool;
  for (auto _ : state) {
    auto g = lumen::geom::compute_visibility(pts, &pool);
    benchmark::DoNotOptimize(g);
  }
  state.counters["pool_workers"] = static_cast<double>(pool.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeVisibilityPooled)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

lumen::sim::RunConfig ssync_round_config() {
  lumen::sim::RunConfig config;
  config.scheduler = lumen::sim::SchedulerKind::kSsync;
  config.activation = lumen::sched::ActivationKind::kAll;
  config.seed = 7;
  config.max_cycles_per_robot = 1;  // Exactly one round per run.
  config.record_moves = false;
  return config;
}

void BM_SsyncRoundStep(benchmark::State& state) {
  // One full SSYNC round with every robot active: N Looks against the same
  // configuration (N angular sorts), N Computes, N commits, N move sweeps.
  // The engine setup cost is O(N) and amortizes into noise at these sizes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("ssync-parallel");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  const auto config = ssync_round_config();
  for (auto _ : state) {
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsyncRoundStep)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_SsyncRoundStepPooled(benchmark::State& state) {
  // The same round with Look+Compute fanned over RunConfig::pool —
  // bit-identical output (tests/sim_pool_invariance_test.cpp), so this pair
  // of benchmarks isolates what in-run parallelism buys on this host.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("ssync-parallel");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  lumen::util::ThreadPool pool;
  auto config = ssync_round_config();
  config.pool = &pool;
  for (auto _ : state) {
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.counters["pool_workers"] = static_cast<double>(pool.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsyncRoundStepPooled)
    ->RangeMultiplier(2)
    ->Range(256, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalRound(benchmark::State& state) {
  // Multi-round SSYNC run with the incremental visibility cache enabled:
  // range(0) robots, range(1) rounds per iteration. Rounds past the second
  // flow through the cache's replay/repair/rebuild triage (admission stores
  // on the second Look), so this family prices the whole write-log pipeline
  // end to end — WorldState commits, arena reuse, cache triage — not just
  // the sort kernel. The 65536-robot single-round entry is the scaling
  // probe: it must complete inside the fixed cache budget (the per-observer
  // cap keeps the footprint bounded; see geom::VisibilityCache), and runs
  // one iteration only because a round at that size is seconds, not micro.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("ssync-parallel");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  auto config = ssync_round_config();
  config.max_cycles_per_robot = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IncrementalRound)
    ->Args({4096, 3})
    ->Args({65536, 1})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_VisibilityNaiveOracle(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto g = lumen::geom::compute_visibility_naive(pts);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VisibilityNaiveOracle)->Range(32, 256)->Complexity();

void BM_BuildSnapshot(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 5);
  const std::vector<lumen::model::Light> lights(pts.size(),
                                                lumen::model::Light::kOff);
  lumen::util::Prng rng{6};
  const auto frame = lumen::model::LocalFrame::random(pts[0], rng);
  const std::size_t allocs_before = alloc_count();
  for (auto _ : state) {
    auto snap = lumen::model::build_snapshot(pts, lights, 0, frame);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BuildSnapshot)->Range(32, 1024);

void BM_BuildSnapshotScratch(benchmark::State& state) {
  // The engine's steady-state Look path (SoA arrays, as sim::WorldState
  // holds them): warmed scratch buffers, zero heap traffic (the counter
  // column proves it).
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (const Vec2 p : pts) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const std::vector<lumen::model::Light> lights(pts.size(),
                                                lumen::model::Light::kOff);
  lumen::util::Prng rng{6};
  const auto frame = lumen::model::LocalFrame::random(pts[0], rng);
  lumen::model::SnapshotScratch scratch;
  lumen::model::Snapshot snap;
  lumen::model::build_snapshot(xs, ys, lights, 0, frame, scratch, snap);  // Warm.
  const std::size_t allocs_before = alloc_count();
  for (auto _ : state) {
    lumen::model::build_snapshot(xs, ys, lights, 0, frame, scratch, snap);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BuildSnapshotScratch)->Range(32, 1024);

void BM_FullAsyncRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("async-log");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  for (auto _ : state) {
    lumen::sim::RunConfig config;
    config.seed = 7;
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullAsyncRun)->RangeMultiplier(2)->Range(16, 64)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: default to ALSO writing JSON (bench_micro.json) so the
// results are machine-readable without extra flags; any explicit
// --benchmark_out takes precedence.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=bench_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  // library_build_type in the JSON reports how google-benchmark ITSELF was
  // compiled (a debug system package taints it irreparably); what the
  // regression gate must trust is how THIS binary — the code under test —
  // was compiled. compare_bench.py hard-fails on anything but "release".
#ifdef NDEBUG
  benchmark::AddCustomContext("lumen_build_type", "release");
#else
  benchmark::AddCustomContext("lumen_build_type", "debug");
#endif
  benchmark::AddCustomContext(
      "lumen_simd",
      std::string(lumen::geom::simd::to_string(
          lumen::geom::simd::active_level())));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
