// lumen_geom: segments, point-segment kernels, and exact intersection
// classification.
//
// Path-crossing detection (one half of the paper's collision-freedom claim)
// is decided here: two robot trajectories cross iff their path segments
// intersect. Classification is exact (built on orient2d); distances are
// floating approximations used only for metric decisions with slack.
#pragma once

#include "geom/predicates.hpp"
#include "geom/vec2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace lumen::geom {

struct Segment {
  Vec2 a;
  Vec2 b;

  [[nodiscard]] double length() const noexcept { return distance(a, b); }
  [[nodiscard]] Vec2 midpoint() const noexcept { return geom::midpoint(a, b); }
  [[nodiscard]] bool degenerate() const noexcept { return a == b; }
};

/// How two segments meet, from "not at all" to "share a sub-segment".
enum class SegmentRelation {
  kDisjoint,        ///< No common point.
  kTouching,        ///< Exactly one common point, at an endpoint of at least one segment.
  kProperCrossing,  ///< One common point strictly interior to both segments.
  kOverlapping,     ///< Collinear with a shared sub-segment of positive length.
};

/// Exact classification of how s and t intersect.
[[nodiscard]] SegmentRelation classify_intersection(const Segment& s,
                                                    const Segment& t) noexcept;

/// True iff the segments share at least one point (any relation but
/// kDisjoint).
[[nodiscard]] bool segments_intersect(const Segment& s, const Segment& t) noexcept;

/// True iff the segments share a point that is interior to at least one of
/// them, or overlap — the "paths cross" relation of the paper (two movers may
/// share an endpoint only if it is a common rendezvous, which the collision
/// monitor flags separately).
[[nodiscard]] bool segments_cross(const Segment& s, const Segment& t) noexcept;

/// Intersection point of properly crossing segments (floating); nullopt for
/// any other relation.
[[nodiscard]] std::optional<Vec2> crossing_point(const Segment& s,
                                                 const Segment& t) noexcept;

/// Parameter t in [0,1] of the closest point on s to p (0 at s.a, 1 at s.b).
[[nodiscard]] inline double project_onto_segment(const Segment& s, Vec2 p) noexcept {
  const Vec2 d = s.b - s.a;
  const double len_sq = norm_sq(d);
  if (len_sq == 0.0) return 0.0;
  return std::clamp(dot(p - s.a, d) / len_sq, 0.0, 1.0);
}

/// Closest point on the CLOSED segment to p.
[[nodiscard]] inline Vec2 closest_point_on_segment(const Segment& s, Vec2 p) noexcept {
  return lerp(s.a, s.b, project_onto_segment(s, p));
}

/// Euclidean distance from p to the closed segment.
[[nodiscard]] inline double point_segment_distance(const Segment& s, Vec2 p) noexcept {
  return distance(p, closest_point_on_segment(s, p));
}

/// point_segment_distance(s, p), or +inf when the max-norm certificate
/// proves that distance is above `bound`; hypot runs only when it could
/// decide. So `point_segment_distance_within(s, p, r) <= r` and
/// `point_segment_distance_within(s, p, best) < best` return exactly what
/// the plain comparisons return, for every double input (NaN included).
/// The certificate: the distance is hypot(v.x, v.y) with v = c - p, and a
/// faithfully rounded hypot is never below max(|v.x|, |v.y|), because that
/// max is a double no larger than the exact length. A component above
/// `bound` therefore puts the distance above it too. A NaN component fails
/// the test and reaches hypot, as before.
[[nodiscard]] inline double point_segment_distance_within(const Segment& s, Vec2 p,
                                                          double bound) noexcept {
  const Vec2 v = closest_point_on_segment(s, p) - p;
  if (std::fabs(v.x) > bound || std::fabs(v.y) > bound) {
    return std::numeric_limits<double>::infinity();
  }
  return std::hypot(v.x, v.y);
}

/// Minimum distance between two closed segments.
[[nodiscard]] double segment_segment_distance(const Segment& s,
                                              const Segment& t) noexcept;

}  // namespace lumen::geom
