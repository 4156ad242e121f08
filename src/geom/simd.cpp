// lumen_geom: SIMD level detection, LUMEN_SIMD override, kernel dispatch.
//
// Dispatch is one atomic pointer to the active level's kernel table
// (geom/simd_kernels.hpp). Everything the levels share — sizing the key
// build's outputs, the presort's small-input sort and finishing pass — is
// written once here, around the table's kernels.
#include "geom/simd.hpp"

#include "geom/simd_kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace lumen::geom::simd {

namespace {

using detail::Kernels;

constexpr std::array<std::string_view, 4> kLevelNames = {"scalar", "sse2",
                                                         "neon", "avx2"};

/// The kernel table of `level`, or nullptr when this binary has none for
/// it or this host cannot run it. The wide tables exist only when
/// src/geom/CMakeLists.txt compiled their TU (LUMEN_SIMD_HAVE_*).
const Kernels* table_for(Level level) noexcept {
  if (level == Level::kScalar) return &detail::kScalarKernels;
#ifdef LUMEN_SIMD_HAVE_WIDE128
  if (level == detail::kWide128Kernels.level) return &detail::kWide128Kernels;
#endif
#ifdef LUMEN_SIMD_HAVE_AVX2
  if (level == Level::kAvx2 && __builtin_cpu_supports("avx2") != 0) {
    return &detail::kAvx2Kernels;
  }
#endif
  return nullptr;
}

/// nullptr until the first kernel call (or set_active_level) resolves it.
std::atomic<const Kernels*> g_active{nullptr};

Level resolve_startup_level() noexcept {
  Level level = best_supported_level();
  if (const char* env = std::getenv("LUMEN_SIMD")) {
    const auto requested = level_from_string(env);
    if (requested.has_value() && table_for(*requested) != nullptr) {
      level = *requested;
    } else {
      std::fprintf(stderr,
                   "lumen: LUMEN_SIMD=%s is not available on this host; "
                   "using %s\n",
                   env, std::string(to_string(level)).c_str());
    }
  }
  return level;
}

const Kernels& active() noexcept {
  const Kernels* kernels = g_active.load(std::memory_order_acquire);
  if (kernels == nullptr) {
    // Racing first calls both resolve the same table; the store is
    // idempotent.
    kernels = table_for(resolve_startup_level());
    g_active.store(kernels, std::memory_order_release);
  }
  return *kernels;
}

/// Below this many records a plain comparison sort beats the bucket
/// scatter.
constexpr std::size_t kPresortMinRecords = 96;

/// Finishing pass of the value-bucketed presort: `bucket_ends[b]` is the
/// END offset of bucket b in `dst` (what the scatter's post-increment
/// cursors hold). Buckets are already ordered by key; comparison-sort each
/// multi-record bucket on the full word (insertion for the common tiny
/// runs) and the whole array is exactly ascending.
void sort_bucketed_runs(std::uint64_t* dst, const std::uint64_t* bucket_ends,
                        std::size_t nb) {
  std::uint64_t begin = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::uint64_t end = bucket_ends[b];
    const std::uint64_t len = end - begin;
    if (len > 1) {
      if (len <= 32) {
        for (std::uint64_t* p = dst + begin + 1; p < dst + end; ++p) {
          const std::uint64_t v = *p;
          std::uint64_t* q = p;
          while (q > dst + begin && q[-1] > v) {
            *q = q[-1];
            --q;
          }
          *q = v;
        }
      } else {
        std::sort(dst + begin, dst + end);
      }
    }
    begin = end;
  }
}

}  // namespace

std::string_view to_string(Level level) noexcept {
  const auto i = static_cast<std::size_t>(level);
  return i < kLevelNames.size() ? kLevelNames[i] : kLevelNames[0];
}

std::optional<Level> level_from_string(std::string_view s) noexcept {
  for (std::size_t i = 0; i < kLevelNames.size(); ++i) {
    if (kLevelNames[i] == s) return static_cast<Level>(i);
  }
  return std::nullopt;
}

Level best_supported_level() noexcept {
  for (Level level : {Level::kAvx2, Level::kNeon, Level::kSse2}) {
    if (table_for(level) != nullptr) return level;
  }
  return Level::kScalar;
}

Level active_level() noexcept { return active().level; }

bool set_active_level(Level level) noexcept {
  const Kernels* kernels = table_for(level);
  if (kernels == nullptr) return false;
  g_active.store(kernels, std::memory_order_release);
  return true;
}

void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch) {
  const Kernels& kernels = active();
  const std::size_t after = i + 1 < n ? i + 1 : n;
  std::size_t n_upper = 0;
  std::size_t n_valid = 0;
  kernels.count_keys(xs, ys, 0, i, o, n_upper, n_valid);
  kernels.count_keys(xs, ys, after, n, o, n_upper, n_valid);
  // Exact sizing (clear first, so a growing vector allocates the true split
  // rather than twice its old size) plus one slot of slack per array for
  // the 4-lane level's both-sides store; the resize-down restores the exact
  // sizes (AngularKey's constructor does no work, so neither resize touches
  // the elements).
  const std::size_t n_lower = n_valid - n_upper;
  scratch.upper.clear();
  scratch.lower.clear();
  scratch.upper_order.clear();
  scratch.lower_order.clear();
  scratch.upper.resize(n_upper + 1);
  scratch.upper_order.resize(n_upper + 1);
  scratch.lower.resize(n_lower + 1);
  scratch.lower_order.resize(n_lower + 1);
  detail::KeySink sink{scratch.upper.data(), scratch.upper_order.data(),
                       scratch.lower.data(), scratch.lower_order.data()};
  kernels.append_keys(xs, ys, 0, i, o, sink);
  kernels.append_keys(xs, ys, after, n, o, sink);
  scratch.upper.resize(n_upper);
  scratch.upper_order.resize(n_upper);
  scratch.lower.resize(n_lower);
  scratch.lower_order.resize(n_lower);
}

void sort_angular_records(std::vector<std::uint64_t>& records,
                          std::vector<std::uint64_t>& tmp, float max_key) {
  const std::size_t m = records.size();
  if (m < kPresortMinRecords) {
    std::sort(records.begin(), records.end());
    return;
  }
  // Largest power of two NOT ABOVE m (capped): mean occupancy lands in
  // [1, 2), and the cursor array stays within the record footprint so the
  // histogram/scatter working set does not fall out of cache right when m
  // crosses a power of two.
  const std::size_t nb =
      std::min(std::bit_floor(m), std::size_t{1} << 13);
  tmp.resize(nb + m);
  std::uint64_t* const cursors = tmp.data();
  std::uint64_t* const dst = tmp.data() + nb;
  active().bucket_scatter(records.data(), m, nb,
                          static_cast<float>(nb) / max_key, cursors, dst);
  sort_bucketed_runs(dst, cursors, nb);
  std::memcpy(records.data(), dst, m * sizeof(std::uint64_t));
}

void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside) {
  active().hull_cull_mask(pts, n, quad, inside);
}

double nearest_distance_sq(const Vec2* pts, std::size_t n, std::size_t subject,
                           Vec2 from) {
  return active().nearest_distance_sq(pts, n, subject, from);
}

std::size_t farthest_index(const Vec2* pts, std::size_t n, Vec2 from) {
  return active().farthest_index(pts, n, from);
}

bool any_within_segment(const Vec2* pts, std::size_t n, const Segment& s,
                        double r, const std::size_t skip[3]) {
  return active().any_within_segment(pts, n, s, r, skip);
}

std::size_t cone_skip(const Vec2* pts, std::size_t n, std::size_t i, Vec2 o,
                      Vec2 right, Vec2 left) {
  return active().cone_skip(pts, n, i, o, right, left);
}

}  // namespace lumen::geom::simd
