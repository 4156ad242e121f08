// The execution drivers.
//
// ASYNC: a discrete-event loop over per-robot phase events. Each robot
// cycles Wait -> Look (instantaneous snapshot; other robots may be observed
// MID-MOVE at their interpolated positions) -> Compute (the action is
// derived from the stale snapshot and committed, with the light change,
// after the adversarial compute delay) -> Move (constant speed, rigid).
//
// SYNC (FSYNC/SSYNC): discrete rounds; all robots activated in a round Look
// at the same configuration, then apply their moves and light changes
// simultaneously. Moves are recorded as unit-interval segments so the
// collision monitor treats same-round movers as concurrent.
//
// All world state, quiescence accounting and instrumentation fan-out lives
// in ExecutionCore (execution_core.hpp); the drivers below own only their
// scheduling shape. Observers delivered per the contract in observer.hpp;
// the SYNC driver delivers all of a round's commits before any of its move
// completions, mirroring their simultaneity.
//
// In-run parallelism: the SYNC drivers fan each round's Look+Compute over
// RunConfig::pool via ExecutionCore::look_batch (bit-identical for any pool
// size — see DESIGN.md §10). The ASYNC driver stays serial: its event loop
// processes one robot phase at a time and every event both reads and
// advances the shared world clock. Deferring each Look's Compute to the next
// world-changing event and fanning those batches (about 12 Looks) over the
// pool is exact, since null commits do not change the world, but measured
// on a 4-vCPU host it cut wall time by 15% at 36% more CPU time, outside
// the benchmark's 25% CPU bound (DESIGN.md §10.1).
#include "sim/run.hpp"

#include "sim/execution_core.hpp"
#include "util/strings.hpp"

#include <queue>

namespace lumen::sim {

std::string_view to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kFsync: return "FSYNC";
    case SchedulerKind::kSsync: return "SSYNC";
    case SchedulerKind::kAsync: return "ASYNC";
  }
  return "?";
}

std::optional<SchedulerKind> scheduler_from_string(std::string_view name) noexcept {
  for (const auto k :
       {SchedulerKind::kFsync, SchedulerKind::kSsync, SchedulerKind::kAsync}) {
    if (util::iequals(to_string(k), name)) return k;
  }
  return std::nullopt;
}

std::string_view to_string(RunOutcome o) noexcept {
  switch (o) {
    case RunOutcome::kConverged: return "converged";
    case RunOutcome::kStalled: return "stalled";
    case RunOutcome::kCollision: return "collision";
    case RunOutcome::kBudgetExhausted: return "budget-exhausted";
    case RunOutcome::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

std::optional<RunOutcome> outcome_from_string(std::string_view name) noexcept {
  for (const auto o : {RunOutcome::kConverged, RunOutcome::kStalled,
                       RunOutcome::kCollision, RunOutcome::kBudgetExhausted,
                       RunOutcome::kDeadlineExceeded}) {
    if (util::iequals(to_string(o), name)) return o;
  }
  return std::nullopt;
}

namespace {

using geom::Vec2;

// ---------------------------------------------------------------------------
// ASYNC driver
// ---------------------------------------------------------------------------

enum class PhaseEvent { kLook, kCommit, kMoveDone };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for simultaneous events.
  std::size_t robot = 0;
  PhaseEvent type = PhaseEvent::kLook;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

class AsyncDriver {
 public:
  AsyncDriver(const model::Algorithm& algorithm, std::span<const Vec2> initial,
              const RunConfig& config, std::span<RunObserver* const> observers)
      : config_(config),
        core_(algorithm, initial, config, observers),
        adversary_(sched::make_adversary(config.adversary)) {
    core_.seed_frames(core_.split_stream("frames"));
    schedule_rng_ = core_.split_stream("schedule");
    core_.set_look_frame_stream(core_.split_stream("look-frames"));
    timing_.assign(core_.size(), sched::PhaseTiming{});
  }

  RunResult run() {
    RunResult result;
    const WorldState& ws = core_.world_state();
    result.initial_positions.resize(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
      result.initial_positions[i] = ws.position(i);
    }
    core_.notify_run_begin();
    const std::size_t n = core_.size();
    if (n == 0) {
      core_.notify_run_end(0.0);
      core_.finalize(result, /*converged=*/true, /*final_time=*/0.0);
      return result;
    }

    // Boot every robot's first cycle.
    for (std::size_t i = 0; i < n; ++i) start_cycle(i, 0.0);

    const std::size_t cycle_cap = config_.max_cycles_per_robot * n;
    bool quiescent = false;
    // Every robot may have crash-stopped at boot (kTimes schedules with
    // t=0 entries), leaving the queue empty before the loop runs.
    if (events_.empty()) quiescent = core_.quiescent_async();
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      now_ = ev.time;
      switch (ev.type) {
        case PhaseEvent::kLook: {
          core_.look(ev.robot, now_);
          push_event(now_ + timing_[ev.robot].compute, ev.robot,
                     PhaseEvent::kCommit);
          break;
        }
        case PhaseEvent::kCommit: {
          if (core_.commit_async(ev.robot, now_,
                                 timing_[ev.robot].move_duration,
                                 schedule_rng_)) {
            push_event(now_ + timing_[ev.robot].move_duration, ev.robot,
                       PhaseEvent::kMoveDone);
          } else {
            finish_cycle(ev.robot);
          }
          break;
        }
        case PhaseEvent::kMoveDone: {
          core_.complete_move(ev.robot, now_);
          finish_cycle(ev.robot);
          break;
        }
      }
      if (ev.type != PhaseEvent::kLook && core_.quiescent_async()) {
        quiescent = true;
        break;
      }
      if (core_.total_cycles() >= cycle_cap) break;
      // Cooperative watchdog: checked between events, never mid-phase, so a
      // cut-short run still has a consistent world state to finalize.
      if (core_.deadline_exceeded()) break;
      // If the last live robot just crashed the queue drains without a
      // further non-Look event; the survivors' fixpoint still counts.
      if (events_.empty()) quiescent = core_.quiescent_async();
    }

    core_.notify_run_end(now_);
    core_.finalize(result, quiescent, now_);
    return result;
  }

 private:
  void push_event(double time, std::size_t robot, PhaseEvent type) {
    events_.push(Event{time, seq_++, robot, type});
  }

  void start_cycle(std::size_t robot, double time) {
    // Crash-stop fires at cycle boundaries: a dead robot schedules nothing
    // further, but its body and last light stay in the world.
    if (core_.crash_check(robot, time)) return;
    timing_[robot] = adversary_->sample(
        robot, static_cast<std::uint64_t>(core_.total_cycles()), schedule_rng_);
    core_.begin_cycle(robot, time);
    push_event(time + timing_[robot].wait, robot, PhaseEvent::kLook);
  }

  void finish_cycle(std::size_t robot) {
    core_.record_cycle(robot, now_);
    start_cycle(robot, now_);
  }

  const RunConfig& config_;
  ExecutionCore core_;
  util::Prng schedule_rng_{0};
  std::unique_ptr<sched::Adversary> adversary_;
  std::vector<sched::PhaseTiming> timing_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

// ---------------------------------------------------------------------------
// SYNC driver (FSYNC / SSYNC)
// ---------------------------------------------------------------------------

class SyncDriver {
 public:
  SyncDriver(const model::Algorithm& algorithm, std::span<const Vec2> initial,
             const RunConfig& config, std::span<RunObserver* const> observers)
      : config_(config), core_(algorithm, initial, config, observers) {
    const sched::ActivationKind kind = config.scheduler == SchedulerKind::kFsync
                                           ? sched::ActivationKind::kAll
                                           : config.activation;
    policy_ = sched::make_activation(kind);
    activation_rng_ = core_.split_stream("activation");
    motion_rng_ = core_.split_stream("motion");
    core_.set_look_frame_stream(core_.split_stream("look-frames"));
    core_.seed_frames(core_.split_stream("frames"));
  }

  RunResult run() {
    RunResult result;
    const WorldState& ws = core_.world_state();
    result.initial_positions.resize(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
      result.initial_positions[i] = ws.position(i);
    }
    core_.notify_run_begin();
    const std::size_t n = core_.size();
    if (n == 0) {
      core_.notify_run_end(0.0);
      core_.finalize(result, /*converged=*/true, /*final_time=*/0.0);
      return result;
    }

    const std::size_t round_cap = config_.max_cycles_per_robot;
    std::uint64_t round = 0;
    bool quiescent = false;
    std::vector<std::uint8_t> started;
    while (round < round_cap) {
      const double t0 = static_cast<double>(round);
      const double t1 = t0 + 1.0;
      const auto activated = policy_->activate(n, round, activation_rng_);
      // Crash-stop filter: a robot dies (or is already dead) at its
      // activation instant and simply drops out of the round. Guarded so
      // the zero-fault path hands the policy's vector through untouched.
      std::span<const std::size_t> active = activated;
      if (core_.crash_faults_enabled()) {
        alive_.clear();
        for (const std::size_t r : activated) {
          if (core_.crashed(r) || core_.crash_check(r, t0)) continue;
          alive_.push_back(r);
        }
        active = alive_;
      }
      // All activated robots Look at the same pre-round configuration, so
      // the round's Look+Compute fan-out runs on config.pool when present
      // (bit-identical to the serial loop; commit order below is what the
      // downstream bits depend on and it never changes).
      for (const std::size_t r : active) core_.begin_cycle(r, t0);
      core_.look_batch(active, t0);
      // Simultaneous application: all commits land before any position
      // write, so same-round movers see each other's pre-round positions.
      started.assign(active.size(), 0);
      for (std::size_t k = 0; k < active.size(); ++k) {
        started[k] = core_.commit_sync(active[k], t0, t1, motion_rng_) ? 1 : 0;
      }
      for (std::size_t k = 0; k < active.size(); ++k) {
        if (started[k] != 0) core_.complete_move(active[k], t1);
      }
      for (const std::size_t r : active) core_.record_cycle(r, t1);
      core_.notify_round(round, t1);
      ++round;
      if (core_.quiescent_sync()) {
        quiescent = true;
        break;
      }
      // Cooperative watchdog at the round boundary (quiescence wins ties).
      if (core_.deadline_exceeded()) break;
    }

    const double final_time = static_cast<double>(round);
    core_.notify_run_end(final_time);
    core_.finalize(result, quiescent, final_time);
    result.rounds = round;
    return result;
  }

 private:
  const RunConfig& config_;
  ExecutionCore core_;
  util::Prng activation_rng_{0};
  util::Prng motion_rng_{0};
  std::unique_ptr<sched::ActivationPolicy> policy_;
  std::vector<std::size_t> alive_;  ///< Crash-filtered activation scratch.
};

}  // namespace

RunResult run_simulation(const model::Algorithm& algorithm,
                         std::span<const Vec2> initial, const RunConfig& config,
                         std::span<RunObserver* const> observers) {
  MoveLogRecorder move_recorder;
  HullHistoryRecorder hull_recorder(config.scheduler != SchedulerKind::kAsync);
  FaultLogRecorder fault_recorder;
  const bool record_faults = config.record_moves && config.fault.any();
  std::vector<RunObserver*> attached(observers.begin(), observers.end());
  if (config.record_moves) attached.push_back(&move_recorder);
  if (config.record_hull_history) attached.push_back(&hull_recorder);
  if (record_faults) attached.push_back(&fault_recorder);

  RunResult result;
  if (config.scheduler == SchedulerKind::kAsync) {
    AsyncDriver driver(algorithm, initial, config, attached);
    result = driver.run();
  } else {
    SyncDriver driver(algorithm, initial, config, attached);
    result = driver.run();
  }
  if (config.record_moves) result.moves = std::move(move_recorder.moves());
  if (config.record_hull_history) {
    result.hull_history = std::move(hull_recorder.samples());
  }
  if (record_faults) result.fault_events = std::move(fault_recorder.events());
  return result;
}

RunResult run_simulation(const model::Algorithm& algorithm,
                         std::span<const Vec2> initial,
                         const RunConfig& config) {
  return run_simulation(algorithm, initial, config, {});
}

}  // namespace lumen::sim
