#include "core/beacon.hpp"

#include "geom/predicates.hpp"
#include "geom/segment.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <limits>

namespace lumen::core {

using geom::Vec2;

namespace {

/// Signed-area value of triangle (a, b, c) as a plain double — used only for
/// metric bounds (never for sign decisions, which use orient2d).
double tri(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// Largest h such that orient(u, v, base + h*n) stays > 0 (the wedge bound
/// contributed by the hull edge u->v); +inf when unconstrained.
double wedge_bound(Vec2 u, Vec2 v, Vec2 base, Vec2 n) noexcept {
  const double a0 = tri(u, v, base);
  const double slope = tri(u, v, base + n) - a0;
  if (slope >= 0.0) return std::numeric_limits<double>::infinity();
  if (a0 <= 0.0) return 0.0;
  return a0 / -slope;
}

/// Height cap for an insertion at `base` + h * `n` outside `gate` (length
/// `len`): a quarter of the gate, and at most 0.45 of the height at which
/// the point would leave the wedge bounded by the extensions of the hull
/// edges adjacent to the gate (keeping c1 and c2 strict corners). A
/// numerically flat corner gets a conservative nudge instead; the next
/// cycle re-classifies and continues.
double wedge_capped_height(const LocalView& view, const GateEdge& gate,
                           Vec2 base, Vec2 n, double len) noexcept {
  double h_wedge = std::numeric_limits<double>::infinity();
  const std::size_t h = view.hull.size();
  if (h >= 3) {
    const Vec2 c0 = view.pts[view.hull[(gate.k + h - 1) % h]];
    const Vec2 c3 = view.pts[view.hull[(gate.k + 2) % h]];
    h_wedge = std::min(h_wedge, wedge_bound(c0, gate.c1, base, n));
    // Constraint at c2: orient(p, c2, c3) > 0 == orient(c2, c3, p) > 0.
    h_wedge = std::min(h_wedge, wedge_bound(gate.c2, c3, base, n));
  }
  double h_cap = 0.25 * len;
  if (std::isfinite(h_wedge)) h_cap = std::min(h_cap, 0.45 * h_wedge);
  if (h_cap <= len * 1e-12) h_cap = 0.05 * len;
  return h_cap;
}

}  // namespace

std::optional<Vec2> interior_insertion_target(const LocalView& view,
                                              const GateEdge& gate) {
  const Vec2 d = gate.c2 - gate.c1;
  const double len = geom::norm(d);
  if (len <= 0.0) return std::nullopt;
  const Vec2 u = d / len;
  // CCW hull: interior (and thus the observer) is LEFT of c1->c2; outward is
  // right. Double-check against the observer and bail out on degeneracy.
  Vec2 n{u.y, -u.x};
  const Vec2 self = view.self();
  if (geom::dot(n, self - gate.c1) > 0.0) n = -n;

  // Strictly monotone squash of the (unclamped) projection into (0, 1):
  // distinct movers at this edge ALWAYS get distinct columns, even when
  // their feet fall beyond the edge ends (a hard clamp would collapse them
  // onto the same target — the identical-target collision). The [0.15,
  // 0.85] column band keeps targets away from the gate's corners, where the
  // approach regions of adjacent edges meet.
  const double t_raw = geom::dot(self - gate.c1, u) / len;
  const double t = 0.5 + std::atan(2.0 * (t_raw - 0.5)) / std::numbers::pi;
  const double lambda = 0.15 + 0.7 * t;
  const Vec2 base = gate.c1 + u * (lambda * len);
  const double height =
      wedge_capped_height(view, gate, base, n, len) * (0.4 + 0.5 * lambda);
  return base + n * height;
}

namespace {

/// An ASYNC gate: not incident to the observer (its own vertex cannot
/// anchor a gate), and both endpoints Corner-lit.
bool corner_lit_gate(const LocalView& view, std::size_t i1, std::size_t i2) {
  return i1 != 0 && i2 != 0 && view.lights[i1] == model::Light::kCorner &&
         view.lights[i2] == model::Light::kCorner;
}

}  // namespace

std::optional<GateEdge> nearest_corner_lit_gate(const LocalView& view) {
  return scan_nearest_hull_edge(view, view.self(), [&](std::size_t i1, std::size_t i2) {
    return corner_lit_gate(view, i1, i2);
  });
}

std::vector<GateFrame> gate_frames(const LocalView& view) {
  std::vector<GateFrame> frames;
  const std::size_t h = view.hull.size();
  if (h < 3) return frames;
  // Interior witness for outward orientation: the hull vertex mean is
  // strictly inside any convex polygon, and stays valid even when the mover
  // is outside the hull (a mid-flight rival being modelled).
  const Vec2 witness = hull_vertex_mean(view);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (!corner_lit_gate(view, i1, i2)) continue;
    const GateEdge gate{i1, i2, view.pts[i1], view.pts[i2], 0.0, k};
    const Vec2 d = gate.c2 - gate.c1;
    const double len = geom::norm(d);
    if (len <= 0.0) continue;  // A degenerate gate yields no plan.
    const Vec2 u = d / len;
    Vec2 n{u.y, -u.x};
    if (geom::dot(n, witness - gate.c1) > 0.0) n = -n;
    frames.push_back(GateFrame{gate, len, u, n});
  }
  return frames;
}

void plan_exits(const LocalView& view, std::span<const GateFrame> frames,
                Vec2 from, std::vector<ExitPlan>& plans) {
  plans.clear();
  for (const GateFrame& f : frames) {
    // Perpendicular approach: straight out from `from`'s own projection onto
    // the gate, at a wedge-bounded height, and only when the projection
    // falls inside the central [0.08, 0.92] band (approach slabs must stay
    // clear of the gate's corners). The band rejects most edges, so the
    // edge distance is measured only for the ones that yield a plan.
    const double t_raw = geom::dot(from - f.gate.c1, f.u) / f.len;
    if (t_raw < 0.08 || t_raw > 0.92) continue;
    const Vec2 base = f.gate.c1 + f.u * (t_raw * f.len);
    const double height =
        wedge_capped_height(view, f.gate, base, f.n, f.len) * (0.4 + 0.5 * t_raw);
    const Vec2 target = base + f.n * height;
    GateEdge gate = f.gate;
    gate.distance = geom::point_segment_distance({gate.c1, gate.c2}, from);
    plans.push_back(ExitPlan{gate, target, geom::distance(from, target)});
  }
  std::sort(plans.begin(), plans.end(), [](const ExitPlan& a, const ExitPlan& b) {
    return a.gate.distance < b.gate.distance;
  });
}

std::vector<ExitPlan> plan_exits(const LocalView& view, Vec2 from) {
  std::vector<ExitPlan> plans;
  plan_exits(view, gate_frames(view), from, plans);
  return plans;
}

std::optional<Vec2> side_popout_target(const LocalView& view, const GateEdge& gate) {
  const Vec2 d = gate.c2 - gate.c1;
  const double len = geom::norm(d);
  if (len <= 0.0) return std::nullopt;
  const Vec2 u = d / len;
  // Outward = the side of the edge line holding NO visible robot. The view
  // being 2-D guarantees a strict witness exists.
  Vec2 n{u.y, -u.x};
  bool oriented = false;
  for (std::size_t i = 1; i < view.pts.size() && !oriented; ++i) {
    const int o = geom::orient2d(gate.c1, gate.c2, view.pts[i]);
    if (o != 0) {
      // The witness robot is on the interior side; make n point away from it.
      if (geom::dot(n, view.pts[i] - gate.c1) > 0.0) n = -n;
      oriented = true;
    }
  }
  if (!oriented) return std::nullopt;  // Fully collinear view: not a Side role.

  const Vec2 self = view.self();
  const double d1 = geom::distance(self, gate.c1);
  const double d2 = geom::distance(self, gate.c2);
  const double t = std::clamp(d1 / len, 0.0, 1.0);
  const double height =
      std::min(0.2 * std::min(d1, d2), 0.1 * len) * (0.6 + 0.3 * t);
  if (height <= 0.0) return std::nullopt;
  return self + n * height;
}

Vec2 line_escape_target(const LocalView& view) {
  const Vec2 self = view.self();
  double best_sq = std::numeric_limits<double>::infinity();
  Vec2 nearest{};
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    const double ds = geom::distance_sq(self, view.pts[i]);
    if (ds > 0.0 && ds < best_sq) {
      best_sq = ds;
      nearest = view.pts[i];
    }
  }
  if (!std::isfinite(best_sq)) return self;
  const Vec2 dir = geom::normalized(nearest - self);
  const double dist = std::sqrt(best_sq);
  return self + geom::perp(dir) * (0.25 * dist);
}

}  // namespace lumen::core
