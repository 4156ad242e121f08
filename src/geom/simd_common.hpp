// lumen_geom: scalar building blocks shared by every SIMD dispatch level.
//
// The vector kernels in simd_batch.inl process full lanes and delegate
// block tails (and the whole input, at the scalar level) to these helpers,
// so "what one point contributes" is defined in exactly one place. The
// scalar formulas here ARE the bit-identity reference: a vector lane is
// correct iff it reproduces these doubles bit for bit.
#pragma once

#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "geom/visibility.hpp"
#include "geom/visibility_detail.hpp"

#include <bit>
#include <cstdint>

namespace lumen::geom::simd::detail {

/// Packs the radix presort record for a key about to land at `slot` in its
/// half (callers pass half.size() BEFORE the push_back).
inline std::uint64_t order_record(float akey, std::size_t slot) noexcept {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(akey)} << 32) |
         static_cast<std::uint32_t>(slot);
}

/// Appends point j's angular key (direction d = p - o, nonzero) to the
/// half-partitioned key and presort-record vectors — one point of the
/// scalar build_keys_soa, with the presort record built alongside.
inline void append_key(Vec2 d, std::uint32_t j, VisibilityScratch& scratch) {
  using geom::detail::diamond_key;
  using geom::detail::half_of;
  if (half_of(d) == 0) {
    const float akey = diamond_key(d);
    scratch.upper_order.push_back(order_record(akey, scratch.upper.size()));
    scratch.upper.push_back(AngularKey{d, norm_sq(d), akey, j});
  } else {
    const float akey = diamond_key(Vec2{-d.x, -d.y});
    scratch.lower_order.push_back(order_record(akey, scratch.lower.size()));
    scratch.lower.push_back(AngularKey{d, norm_sq(d), akey, j});
  }
}

/// True only when the stage-A filter CERTIFIES that an orient2d
/// determinant is positive, given its two rounded products (Shewchuk's
/// detleft and detright, formed with the third point subtracted). No exact
/// fallback: an uncertain sign returns false, which every caller treats as
/// "keep the point" — sound, because a false negative merely forgoes a
/// discard or a skip.
inline bool certainly_positive(double detleft, double detright) noexcept {
  const double det = detleft - detright;
  if (!(det > 0.0)) return false;
  double detsum = 0.0;
  if (detleft > 0.0) {
    if (detright <= 0.0) return true;  // Opposite signs: det sign is exact.
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    detsum = -detleft - detright;  // det > 0 forces detright < detleft < 0.
  } else {
    return false;  // detleft rounded to zero: cannot certify.
  }
  return det >= geom::detail::kCcwErrBoundA * detsum;
}

/// True only when the stage-A filter CERTIFIES orient2d(a, b, c) > 0 (c
/// strictly left of a->b).
inline bool certainly_left(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return certainly_positive((a.x - c.x) * (b.y - c.y), (a.y - c.y) * (b.x - c.x));
}

/// True only when the stage-A filter CERTIFIES that d lies strictly inside
/// the cone from ray r counter-clockwise to ray l, all three given as
/// differences from the apex o (d = p - o, r = right - o, l = left - o):
/// certainly_left(right, p, o) and certainly_left(p, left, o), i.e.
/// orient2d(o, right, p) > 0 and orient2d(o, p, left) > 0, with the apex as
/// the subtracted point so the differences are shared.
inline bool certainly_inside_cone(Vec2 r, Vec2 l, Vec2 d) noexcept {
  return certainly_positive(r.x * d.y, r.y * d.x) &&
         certainly_positive(d.x * l.y, d.y * l.x);
}

/// Scalar cull test for one point against the CCW quad, matching the
/// vector lanes decision for decision.
inline bool inside_quad(const Vec2 quad[4], Vec2 p) noexcept {
  return certainly_left(quad[0], quad[1], p) &&
         certainly_left(quad[1], quad[2], p) &&
         certainly_left(quad[2], quad[3], p) &&
         certainly_left(quad[3], quad[0], p);
}

/// One point of nearest_distance_sq: folds distance_sq(from, p) into acc
/// as `d < acc ? d : acc` (std::min's choice, so NaN never wins).
inline double fold_nearest(double acc, Vec2 from, Vec2 p) noexcept {
  const double d = distance_sq(from, p);
  return d < acc ? d : acc;
}

/// True iff j is one of any_within_segment's three skipped indices.
inline bool is_skipped(std::size_t j, const std::size_t skip[3]) noexcept {
  return j == skip[0] || j == skip[1] || j == skip[2];
}

/// One point of any_within_segment: the corridor test the vector lanes
/// reproduce (closest point, max-norm certificate, then hypot).
inline bool within_segment(const Segment& s, Vec2 p, double r) noexcept {
  return point_segment_distance_within(s, p, r) <= r;
}

}  // namespace lumen::geom::simd::detail
