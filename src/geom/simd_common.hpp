// lumen_geom: scalar building blocks shared by every SIMD dispatch level.
//
// The vector kernels in simd_batch.inl process full lanes and delegate
// block tails (and the whole input, at the scalar level) to these helpers,
// so "what one point contributes" is defined in exactly one place. The
// scalar formulas here ARE the bit-identity reference: a vector lane is
// correct iff it reproduces these doubles bit for bit. The helpers have
// internal linkage: only the level TUs include this header, and none of
// them exports anything but its kernel table.
#pragma once

#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "geom/simd_kernels.hpp"
#include "geom/visibility.hpp"
#include "geom/visibility_detail.hpp"

#include <bit>
#include <cstdint>

namespace lumen::geom::simd::detail {
namespace {

/// Packs the presort record for a key landing at `slot` in its half.
inline std::uint64_t order_record(float akey, std::size_t slot) noexcept {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(akey)} << 32) |
         static_cast<std::uint32_t>(slot);
}

/// One point of count_keys: direction d = p - o, skipped when zero.
inline void count_key(Vec2 d, std::size_t& n_upper,
                      std::size_t& n_valid) noexcept {
  if (d.x == 0.0 && d.y == 0.0) return;
  ++n_valid;
  if (geom::detail::half_of(d) == 0) ++n_upper;
}

/// One point of append_keys: writes point j's angular key (direction
/// d = p - o, skipped when zero) and its presort record at the cursor of
/// its half.
inline void sink_key(Vec2 d, std::size_t j, KeySink& sink) noexcept {
  if (d.x == 0.0 && d.y == 0.0) return;
  const AngularKey key = geom::detail::make_key(d, j);
  if (geom::detail::half_of(d) == 0) {
    sink.up_order[sink.up_pos] = order_record(key.akey, sink.up_pos);
    sink.up_keys[sink.up_pos++] = key;
  } else {
    sink.lo_order[sink.lo_pos] = order_record(key.akey, sink.lo_pos);
    sink.lo_keys[sink.lo_pos++] = key;
  }
}

/// The presort bucket of one (float_bits << 32 | slot) record: the key's
/// value times `scale`, truncated, with keys at or above the top clamped
/// into the last of the `nb` buckets.
inline std::size_t bucket_of(std::uint64_t rec, std::size_t nb,
                             float scale) noexcept {
  const auto b = static_cast<std::size_t>(geom::detail::akey_of(rec) * scale);
  return b < nb ? b : nb - 1;
}

/// Turns bucket counts into bucket START offsets, in place.
inline void exclusive_prefix_sum(std::uint64_t* cursors,
                                 std::size_t nb) noexcept {
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::uint64_t count = cursors[b];
    cursors[b] = sum;
    sum += count;
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

/// One point of farthest_index: point j replaces the farthest so far only
/// when strictly farther (`d > far_sq`, so NaN never wins and ties keep the
/// first index).
inline void fold_farthest(std::size_t& far, double& far_sq, Vec2 from, Vec2 p,
                          std::size_t j) noexcept {
  const double d = distance_sq(from, p);
  if (d > far_sq) {
    far_sq = d;
    far = j;
  }
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

}  // namespace
}  // namespace lumen::geom::simd::detail
