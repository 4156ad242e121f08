// lumen_sim: streaming collision auditing.
//
// StreamingCollisionMonitor is the product's one continuous collision
// audit (monitors.hpp's CollisionReport). It folds over the live event
// stream instead of a retained move log, so runs of any length are audited
// with memory bounded by the number of concurrently-relevant motion pieces.
// The post-hoc replay in tests/collision_oracle.hpp is its test oracle.
//
// Algorithm: each robot's trajectory is the same piecewise-linear Piece
// decomposition the post-hoc oracle reconstructs (idle stretches and
// move segments). A piece CLOSES when its end becomes known — an idle piece
// when the robot's next move commits, a move piece when it completes, tails
// at run end. Every overlapping piece pair is evaluated exactly once, when
// its LATER-closing piece closes (the earlier one is in the closed history;
// open pieces are skipped and pick the pair up at their own closure). Since
// both auditors call min_distance_linear_motion / segments_cross on
// bit-identical Piece windows, a CONVERGED run yields a bit-identical
// min_separation and identical collision/crossing counts.
//
// Known divergences from the post-hoc audit, by design:
//  * first_incident uses closure order (earliest evaluation wins), not the
//    post-hoc robot-pair-major order; counts and min_separation agree.
//  * A run aborted at the cycle cap with a move still in flight: post-hoc
//    never sees the unfinished move (it is not in the log) and models the
//    robot as one idle piece to the horizon, while the monitor has already
//    closed the pre-move idle piece. The windows split differently, which
//    can shift min_separation by ulps and merge/split incident counts.
#pragma once

#include "sim/monitors.hpp"
#include "sim/observer.hpp"

#include <cstddef>
#include <deque>
#include <vector>

namespace lumen::sim {

class StreamingCollisionMonitor final : public RunObserver {
 public:
  /// `collision_tolerance`: separations at or below it count as collisions
  /// (0 flags only exact coincidence; the benches use a small positive
  /// value to also catch grazing contact).
  explicit StreamingCollisionMonitor(double collision_tolerance = 0.0)
      : tolerance_(collision_tolerance) {}

  void on_run_begin(const WorldView& world) override;
  void on_commit(const CommitEvent& event, const WorldView& world) override;
  void on_move_complete(const MoveSegment& move, const WorldView& world) override;
  /// Closes every tail piece at the run horizon (`world.time`) and seals
  /// the report.
  void on_run_end(const WorldView& world) override;

  /// The audit verdict; complete once on_run_end has fired.
  [[nodiscard]] const CollisionReport& report() const noexcept { return report_; }

  /// Closed pieces currently buffered across all robots (test/introspection
  /// hook: stays bounded on long runs, unlike a move log).
  [[nodiscard]] std::size_t retained_pieces() const noexcept;

 private:
  struct ClosedPiece {
    detail::Piece piece;
    bool is_move = false;
  };

  struct RobotState {
    std::deque<ClosedPiece> closed;
    double open_start = 0.0;   ///< Start of the current open (idle/move) piece.
    geom::Vec2 idle_pos{};     ///< Committed position while idle.
    bool in_flight = false;
    MoveSegment flight{};      ///< Valid while in_flight.
  };

  /// Evaluates `piece` (robot `r`, just closed) against every other robot's
  /// closed pieces, then appends it to r's history.
  void close_piece(std::size_t r, const detail::Piece& piece, bool is_move);

  /// Drops closed pieces that can no longer overlap any future window.
  void prune();

  void note_incident(std::size_t a, std::size_t b, double time,
                     double separation, const char* kind, bool is_position);

  double tolerance_ = 0.0;
  bool sealed_ = false;
  std::vector<RobotState> robots_;
  CollisionReport report_;
};

}  // namespace lumen::sim
