// Post-hoc continuous collision audit over a recorded move log — the test
// oracle for sim::StreamingCollisionMonitor.
//
// The product audits collisions by streaming (sim/streaming_collision.hpp).
// This O(M^2) replay reconstructs every robot's piecewise-linear trajectory
// from the retained log and checks the same two conditions independently:
// for every pair of robots and every instant, positions stay distinct
// (closed-form closest approach between linear pieces), and the swept paths
// of time-overlapping moves never cross. Both auditors evaluate
// min_distance_linear_motion on bit-identical Piece windows, so on a
// converged run the counts and min_separation agree exactly.
#pragma once

#include "geom/segment.hpp"
#include "sim/monitors.hpp"
#include "sim/trajectory.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace lumen::sim {

namespace oracle_detail {

inline std::vector<detail::Piece> pieces_of(const Trajectory& traj,
                                            double horizon) {
  std::vector<detail::Piece> pieces;
  double t = 0.0;
  geom::Vec2 p = traj.initial();
  for (const auto& m : traj.moves()) {
    if (m.t0 > t) pieces.push_back({t, m.t0, p, p});
    pieces.push_back({m.t0, m.t1, m.from, m.to});
    t = m.t1;
    p = m.to;
  }
  if (t < horizon) pieces.push_back({t, horizon, p, p});
  return pieces;
}

inline void note_incident(CollisionReport& report, std::size_t a,
                          std::size_t b, double time, double separation,
                          const char* kind, bool is_position_collision) {
  if (is_position_collision) {
    ++report.position_collisions;
  } else {
    ++report.path_crossings;
  }
  if (!report.first_incident) {
    report.first_incident = CollisionIncident{a, b, time, separation, kind};
  }
}

}  // namespace oracle_detail

/// Runs the full continuous collision audit over a recorded execution.
/// `collision_tolerance`: separations at or below it count as collisions
/// (0 flags only exact coincidence).
[[nodiscard]] inline CollisionReport check_collisions(
    std::span<const geom::Vec2> initial_positions,
    std::span<const MoveSegment> moves, double horizon,
    double collision_tolerance = 0.0) {
  using detail::Piece;
  using detail::piece_at;
  CollisionReport report;
  const std::size_t n = initial_positions.size();
  const auto trajectories = build_trajectories(initial_positions, moves);
  std::vector<std::vector<Piece>> pieces(n);
  for (std::size_t i = 0; i < n; ++i) {
    pieces[i] = oracle_detail::pieces_of(trajectories[i], horizon);
  }

  // Continuous closest approach, pairwise over overlapping linear pieces.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Merge-walk the two piece lists by time.
      std::size_t a = 0, b = 0;
      while (a < pieces[i].size() && b < pieces[j].size()) {
        const Piece& pa = pieces[i][a];
        const Piece& pb = pieces[j][b];
        const double lo = std::max(pa.t0, pb.t0);
        const double hi = std::min(pa.t1, pb.t1);
        if (lo <= hi) {
          double t_at = lo;
          const double d = min_distance_linear_motion(
              piece_at(pa, lo), piece_at(pa, hi), piece_at(pb, lo), piece_at(pb, hi),
              lo, hi, &t_at);
          if (d < report.min_separation) report.min_separation = d;
          if (d <= collision_tolerance) {
            oracle_detail::note_incident(report, i, j, t_at, d, "position", true);
          }
        }
        if (pa.t1 <= pb.t1) {
          ++a;
        } else {
          ++b;
        }
      }
    }
  }

  // Path-crossing audit among time-overlapping moves (the paper's second
  // collision-freedom condition). Zero-length moves are skipped.
  for (std::size_t x = 0; x < moves.size(); ++x) {
    for (std::size_t y = x + 1; y < moves.size(); ++y) {
      const MoveSegment& mx = moves[x];
      const MoveSegment& my = moves[y];
      if (mx.robot == my.robot) continue;
      const bool overlap = std::max(mx.t0, my.t0) <= std::min(mx.t1, my.t1);
      if (!overlap) continue;
      if (mx.from == mx.to || my.from == my.to) continue;
      if (geom::segments_cross(geom::Segment{mx.from, mx.to},
                               geom::Segment{my.from, my.to})) {
        oracle_detail::note_incident(report, mx.robot, my.robot,
                                     std::max(mx.t0, my.t0), 0.0,
                                     "path-crossing", false);
      }
    }
  }
  return report;
}

}  // namespace lumen::sim
