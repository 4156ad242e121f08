#include "geom/visibility_cache.hpp"

#include "geom/visibility_detail.hpp"

#include <algorithm>

namespace lumen::geom {

namespace {

/// Keeps an emission result as 32-bit ids (robot indices fit: the records
/// carry them in 32 bits too). The capacity was reserved for the whole
/// swarm, so this never reallocates.
void keep_ids(const std::vector<std::size_t>& out,
              std::vector<std::uint32_t>& ids) {
  ids.clear();
  for (const std::size_t j : out) ids.push_back(static_cast<std::uint32_t>(j));
}

}  // namespace

void VisibilityCache::reset(std::size_t n, std::size_t budget_bytes) {
  n_ = n;
  const std::size_t per_observer = n == 0 ? 1 : n * kBytesPerRobot;
  cap_ = std::min(n, budget_bytes / std::max<std::size_t>(per_observer, 1));
  if (entries_.size() < cap_) entries_.resize(cap_);
  // Invalidate but keep capacity: version counters restart with each run,
  // so a stale entry from a previous run must never be trusted.
  for (Entry& e : entries_) {
    e.valid = false;
    e.touches = 0;
    e.version = 0;
  }
  replays_.store(0, std::memory_order_relaxed);
  repairs_.store(0, std::memory_order_relaxed);
  rebuilds_.store(0, std::memory_order_relaxed);
}

void VisibilityCache::rebuild(std::span<const double> xs,
                              std::span<const double> ys, std::size_t i,
                              Entry* e, std::uint64_t version,
                              VisibilityScratch& scratch,
                              std::vector<std::size_t>& out) {
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  detail::visible_from_soa_impl(xs.data(), ys.data(), xs.size(), i, scratch,
                                out);
  if (e == nullptr) return;
  // Storing rebuild: the kernel left each half's presort records exactly
  // sorted, so the entry is those records with each slot swapped for its
  // robot index. Both buffers are reserved for the whole swarm once; a
  // later repair that moves robots between halves or grows the visible set
  // then never reallocates.
  e->records.reserve(n_ - 1);
  e->ids.reserve(n_ - 1);
  e->records.clear();
  const auto store = [&](const std::vector<AngularKey>& keys,
                         const std::vector<std::uint64_t>& order) {
    for (const std::uint64_t rec : order) {
      e->records.push_back(detail::index_record(keys[detail::slot_of(rec)]));
    }
  };
  store(scratch.upper, scratch.upper_order);
  e->split = e->records.size();
  store(scratch.lower, scratch.lower_order);
  keep_ids(out, e->ids);
  e->version = version;
  e->valid = true;
}

void VisibilityCache::visible_from(std::span<const double> xs,
                                   std::span<const double> ys, std::size_t i,
                                   std::span<const std::uint32_t> write_log,
                                   std::size_t moving_count,
                                   VisibilityScratch& scratch,
                                   std::vector<std::size_t>& out) {
  const std::uint64_t version = write_log.size();
  Entry* e = i < cap_ ? &entries_[i] : nullptr;
  // In-flight movers mean xs/ys hold interpolated positions the write log
  // knows nothing about: neither replay nor store is sound, so this Look is
  // served transiently and the entry is left for the next committed Look.
  if (moving_count > 0 || e == nullptr) {
    // A transient Look still counts toward admission: the observer is
    // active, so its next committed Look should store.
    if (e != nullptr && e->touches == 0) e->touches = 1;
    rebuild(xs, ys, i, nullptr, version, scratch, out);
    return;
  }
  if (!e->valid) {
    // Admission on second rebuild (see Entry::touches): the first Look of a
    // run is served without the store, so observers that never Look again
    // cost nothing beyond the one-shot kernel.
    if (e->touches == 0) {
      e->touches = 1;
      rebuild(xs, ys, i, nullptr, version, scratch, out);
    } else {
      rebuild(xs, ys, i, e, version, scratch, out);
    }
    return;
  }
  const std::size_t suffix_len =
      static_cast<std::size_t>(version - e->version);
  if (suffix_len == 0) {
    // Nothing committed since the entry was built: the world arrays are
    // bit-identical to the ones it was built from.
    replays_.fetch_add(1, std::memory_order_relaxed);
    out.assign(e->ids.begin(), e->ids.end());
    return;
  }
  if (suffix_len > n_) {
    // Walking a megabyte log suffix costs more than resorting; bail early.
    rebuild(xs, ys, i, e, version, scratch, out);
    return;
  }
  // Dedup the log suffix into the dirty set (a robot may commit many moves
  // between two Looks of this observer).
  if (scratch.mark.size() != n_) scratch.mark.assign(n_, 0);
  std::vector<std::uint32_t>& dirty = scratch.dirty;
  dirty.clear();
  bool self_dirty = false;
  for (std::size_t k = e->version; k < version; ++k) {
    const std::uint32_t r = write_log[k];
    if (r == i) self_dirty = true;
    if (scratch.mark[r] == 0) {
      scratch.mark[r] = 1;
      dirty.push_back(r);
    }
  }
  const bool repairable =
      !self_dirty && dirty.size() <= std::max<std::size_t>(n_ / kRepairDivisor, 1);
  if (!repairable) {
    for (const std::uint32_t r : dirty) scratch.mark[r] = 0;
    rebuild(xs, ys, i, e, version, scratch, out);
    return;
  }
  repairs_.fetch_add(1, std::memory_order_relaxed);
  const auto pt = [xs, ys](std::size_t j) noexcept {
    return Vec2{xs[j], ys[j]};
  };
  const Vec2 o = pt(i);
  // Delete the dirty robots' stale records (their old position may sit in
  // either half), then exact-insert the records of their new positions.
  // Every surviving record is bit-unchanged (its robot and the observer
  // both kept their committed positions), so after insertion each half is
  // again the unique exactly-sorted sequence of the current world. Keys are
  // rebuilt from the coordinates only for the comparator and the emission.
  std::vector<std::uint64_t>& recs = e->records;
  const auto is_dirty = [&](std::uint64_t rec) {
    return scratch.mark[detail::slot_of(rec)] != 0;
  };
  const auto mid = recs.begin() + static_cast<std::ptrdiff_t>(e->split);
  const auto upper_end = std::remove_if(recs.begin(), mid, is_dirty);
  const auto lower_end = std::remove_if(mid, recs.end(), is_dirty);
  std::size_t split = static_cast<std::size_t>(upper_end - recs.begin());
  recs.erase(std::move(mid, lower_end, upper_end), recs.end());
  const auto exact_less = [&](std::uint64_t a, std::uint64_t b) {
    return detail::exact_key_less(pt, o, detail::rebuild_key(pt, o, a),
                                  detail::rebuild_key(pt, o, b));
  };
  for (const std::uint32_t r : dirty) {
    scratch.mark[r] = 0;
    const Vec2 p = pt(r);
    if (p == o) continue;  // Coincident with the observer: never visible.
    const std::uint64_t rec = detail::index_record(detail::make_key(p - o, r));
    const bool upper = detail::half_of(p - o) == 0;
    const auto at_split = recs.begin() + static_cast<std::ptrdiff_t>(split);
    const auto first = upper ? recs.begin() : at_split;
    const auto last = upper ? at_split : recs.end();
    recs.insert(std::lower_bound(first, last, rec, exact_less), rec);
    if (upper) ++split;
  }
  e->split = split;
  const std::span<const std::uint64_t> all(recs);
  const auto key_of = [&](std::uint64_t rec) {
    return detail::rebuild_key(pt, o, rec);
  };
  out.clear();
  out.reserve(recs.size());
  detail::emit_records(pt, o, all.first(split), key_of, out);
  detail::emit_records(pt, o, all.subspan(split), key_of, out);
  keep_ids(out, e->ids);
  e->version = version;
}

}  // namespace lumen::geom
