// Trace export/replay tests: exact round-trip, malformed-input rejection,
// and re-auditing a loaded trace with the collision monitor.
#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "sim/monitors.hpp"

#include "collision_oracle.hpp"

namespace lumen::sim {
namespace {

RunResult example_run(std::uint64_t seed = 11) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 16, seed);
  RunConfig config;
  config.seed = seed;
  return run_simulation(*algo, initial, config);
}

TEST(TraceIo, ExactRoundTripThroughStream) {
  const auto run = example_run();
  const Trace original = make_trace(run);
  std::stringstream ss;
  write_trace(ss, original);
  const auto loaded = read_trace(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(traces_equal(original, *loaded));
}

TEST(TraceIo, FileRoundTrip) {
  const auto run = example_run();
  const std::string path = ::testing::TempDir() + "/lumen_trace_test.jsonl";
  ASSERT_TRUE(save_trace(run, path));
  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(traces_equal(make_trace(run), *loaded));
  EXPECT_FALSE(save_trace(run, "/nonexistent-dir-xyz/trace.jsonl"));
  EXPECT_FALSE(load_trace("/nonexistent-dir-xyz/trace.jsonl").has_value());
}

TEST(TraceIo, LoadedTracePassesTheSameAudit) {
  const auto run = example_run();
  const auto direct =
      check_collisions(run.initial_positions, run.moves, run.final_time);
  std::stringstream ss;
  write_trace(ss, make_trace(run));
  const auto loaded = read_trace(ss);
  ASSERT_TRUE(loaded.has_value());
  const auto replayed = check_collisions(loaded->initial_positions,
                                         loaded->moves, loaded->final_time);
  EXPECT_EQ(direct.position_collisions, replayed.position_collisions);
  EXPECT_EQ(direct.path_crossings, replayed.path_crossings);
  EXPECT_EQ(direct.min_separation, replayed.min_separation);
}

TEST(TraceIo, SameSeedReproducesIdenticalTrace) {
  const Trace a = make_trace(example_run(21));
  const Trace b = make_trace(example_run(21));
  const Trace c = make_trace(example_run(22));
  EXPECT_TRUE(traces_equal(a, b));
  EXPECT_FALSE(traces_equal(a, c));
}

TEST(TraceIo, RejectsMalformedInput) {
  const auto reject = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_FALSE(read_trace(ss).has_value()) << text;
  };
  reject("");
  reject("garbage\n");
  reject("{\"type\":\"other\",\"version\":1}\n");
  // Header promising more robots than lines present.
  reject("{\"type\":\"lumen-trace\",\"version\":1,\"robots\":3,\"converged\":true"
         ",\"final_time\":1,\"epochs\":1,\"moves\":0}\n"
         "{\"init\":[0,0]}\n");
  // Move referencing an out-of-range robot.
  reject("{\"type\":\"lumen-trace\",\"version\":1,\"robots\":1,\"converged\":true"
         ",\"final_time\":1,\"epochs\":1,\"moves\":1}\n"
         "{\"init\":[0,0]}\n"
         "{\"robot\":5,\"t\":[0,1],\"from\":[0,0],\"to\":[1,1]}\n");
  // Absurd counts.
  reject("{\"type\":\"lumen-trace\",\"version\":1,\"robots\":99999999999,"
         "\"converged\":true,\"final_time\":1,\"epochs\":1,\"moves\":0}\n");
}

TEST(TraceIo, EmptyRunSerializes) {
  RunResult empty;
  empty.converged = true;
  std::stringstream ss;
  write_trace(ss, make_trace(empty));
  const auto loaded = read_trace(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->robot_count, 0u);
  EXPECT_TRUE(loaded->converged);
}

}  // namespace
}  // namespace lumen::sim
