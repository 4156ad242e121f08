#include "sim/monitors.hpp"

#include "geom/hull.hpp"
#include "geom/visibility.hpp"
#include "sim/streaming_collision.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lumen::sim {

double min_distance_linear_motion(geom::Vec2 a0, geom::Vec2 a1, geom::Vec2 b0,
                                  geom::Vec2 b1, double t0, double t1,
                                  double* t_min) noexcept {
  // Relative motion: d(t) = (a0-b0) + s(t) * ((a1-b1) - (a0-b0)),
  // s in [0, 1]. |d|^2 is a convex quadratic in s.
  const geom::Vec2 d0 = a0 - b0;
  const geom::Vec2 d1 = a1 - b1;
  const geom::Vec2 v = d1 - d0;
  const double vv = geom::norm_sq(v);
  double s_best = 0.0;
  if (vv > 0.0) s_best = std::clamp(-geom::dot(d0, v) / vv, 0.0, 1.0);
  const double dist_best = geom::norm(d0 + v * s_best);
  // Endpoints could tie with interior minimizer; quadratic convexity makes
  // the clamped critical point globally optimal already.
  if (t_min != nullptr) *t_min = t0 + s_best * (t1 - t0);
  return dist_best;
}

namespace detail {

geom::Vec2 piece_at(const Piece& pc, double t) noexcept {
  if (pc.t1 <= pc.t0) return pc.p0;
  const double s = std::clamp((t - pc.t0) / (pc.t1 - pc.t0), 0.0, 1.0);
  return geom::lerp(pc.p0, pc.p1, s);
}

}  // namespace detail

VisibilityVerdict verify_complete_visibility(std::span<const geom::Vec2> positions,
                                             util::ThreadPool* pool) {
  VisibilityVerdict verdict;
  std::vector<geom::Vec2> sorted(positions.begin(), positions.end());
  std::sort(sorted.begin(), sorted.end());
  verdict.distinct =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  verdict.strictly_convex = geom::points_in_strictly_convex_position(positions);
  verdict.mutually_visible = geom::compute_visibility(positions, pool).complete();
  return verdict;
}

std::vector<std::string_view> success_predicate_names() {
  return {"complete-visibility", "mutual-visibility"};
}

SuccessVerdict verify_success(std::string_view predicate,
                              std::span<const geom::Vec2> positions,
                              util::ThreadPool* pool) {
  SuccessVerdict out;
  out.visibility = verify_complete_visibility(positions, pool);
  if (predicate == "complete-visibility") {
    out.satisfied = out.visibility.complete();
    return out;
  }
  if (predicate == "mutual-visibility") {
    out.satisfied = out.visibility.distinct && out.visibility.mutually_visible;
    return out;
  }
  std::string msg = "unknown success predicate '";
  msg += predicate;
  msg += "'; valid:";
  for (const auto n : success_predicate_names()) {
    msg += ' ';
    msg += n;
  }
  throw std::invalid_argument(msg);
}

// ---------------------------------------------------------------------------
// SafetyMonitor
// ---------------------------------------------------------------------------

SafetyMonitor::SafetyMonitor(double collision_tolerance)
    : inner_(std::make_unique<StreamingCollisionMonitor>(collision_tolerance)) {}

SafetyMonitor::~SafetyMonitor() = default;

void SafetyMonitor::absorb() {
  const CollisionReport& r = inner_->report();
  const std::size_t total = r.position_collisions + r.path_crossings;
  if (total > seen_incidents_) {
    attributed_[static_cast<std::size_t>(last_channel_)] +=
        total - seen_incidents_;
    seen_incidents_ = total;
  }
}

void SafetyMonitor::on_run_begin(const WorldView& world) {
  inner_->on_run_begin(world);
}

void SafetyMonitor::on_fault(const fault::FaultEvent& event, const WorldView&) {
  last_channel_ = event.channel;
}

void SafetyMonitor::on_commit(const CommitEvent& event, const WorldView& world) {
  inner_->on_commit(event, world);
  absorb();
}

void SafetyMonitor::on_move_complete(const MoveSegment& move,
                                     const WorldView& world) {
  inner_->on_move_complete(move, world);
  absorb();
}

void SafetyMonitor::on_run_end(const WorldView& world) {
  inner_->on_run_end(world);
  absorb();
}

const CollisionReport& SafetyMonitor::report() const noexcept {
  return inner_->report();
}

std::size_t SafetyMonitor::attributed(fault::FaultChannel channel) const noexcept {
  return attributed_[static_cast<std::size_t>(channel)];
}

fault::FaultChannel SafetyMonitor::dominant_channel() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < attributed_.size(); ++i) {
    if (attributed_[i] > attributed_[best]) best = i;
  }
  if (attributed_[best] == 0) return fault::FaultChannel::kNone;
  return static_cast<fault::FaultChannel>(best);
}

}  // namespace lumen::sim
