#include "model/snapshot.hpp"

#include "geom/visibility.hpp"

namespace lumen::model {

std::size_t Snapshot::count_light(Light l) const noexcept {
  std::size_t c = 0;
  for (std::size_t k = 1; k < lights.size(); ++k) {
    if (lights[k] == l) ++c;
  }
  return c;
}

Snapshot build_snapshot(std::span<const geom::Vec2> positions,
                        std::span<const Light> lights, std::size_t observer,
                        const LocalFrame& frame) {
  std::vector<double> xs(positions.size());
  std::vector<double> ys(positions.size());
  for (std::size_t j = 0; j < positions.size(); ++j) {
    xs[j] = positions[j].x;
    ys[j] = positions[j].y;
  }
  Snapshot snap;
  SnapshotScratch scratch;
  build_snapshot(xs, ys, lights, observer, frame, scratch, snap);
  return snap;
}

void build_snapshot(std::span<const double> xs, std::span<const double> ys,
                    std::span<const Light> lights, std::size_t observer,
                    const LocalFrame& frame, SnapshotScratch& scratch,
                    Snapshot& out) {
  geom::visible_from(xs, ys, observer, scratch.visibility,
                     scratch.visible_ids);
  fill_snapshot(xs, ys, lights, observer, scratch.visible_ids, frame, out);
}

void fill_snapshot(std::span<const double> xs, std::span<const double> ys,
                   std::span<const Light> lights, std::size_t observer,
                   std::span<const std::size_t> visible_ids,
                   const LocalFrame& frame, Snapshot& out) {
  out.reset(lights[observer]);
  // Sized once and written by index: no per-robot capacity checks.
  out.positions.resize(visible_ids.size() + 1);
  out.lights.resize(visible_ids.size() + 1);
  for (std::size_t k = 0; k < visible_ids.size(); ++k) {
    const std::size_t j = visible_ids[k];
    out.positions[k + 1] = frame.to_local(geom::Vec2{xs[j], ys[j]});
    out.lights[k + 1] = lights[j];
  }
}

}  // namespace lumen::model
