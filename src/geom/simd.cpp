// lumen_geom: SIMD level detection, LUMEN_SIMD override, kernel dispatch.
#include "geom/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace lumen::geom::simd {

// Per-level kernel entry points. The scalar level always exists; the wide
// levels exist only when src/geom/CMakeLists.txt compiled their TU for
// this architecture (LUMEN_SIMD_HAVE_* definitions).
namespace scalar {
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);
void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside);
void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key);
double nearest_distance_sq(const Vec2* pts, std::size_t n, std::size_t subject,
                           Vec2 from);
bool any_within_segment(const Vec2* pts, std::size_t n, const Segment& s,
                        double r, const std::size_t skip[3]);
std::size_t cone_skip(const Vec2* pts, std::size_t n, std::size_t i, Vec2 o,
                      Vec2 right, Vec2 left);
}  // namespace scalar

#ifdef LUMEN_SIMD_HAVE_WIDE128
namespace wide128 {
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);
void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside);
void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key);
double nearest_distance_sq(const Vec2* pts, std::size_t n, std::size_t subject,
                           Vec2 from);
bool any_within_segment(const Vec2* pts, std::size_t n, const Segment& s,
                        double r, const std::size_t skip[3]);
std::size_t cone_skip(const Vec2* pts, std::size_t n, std::size_t i, Vec2 o,
                      Vec2 right, Vec2 left);
}  // namespace wide128
#endif

#ifdef LUMEN_SIMD_HAVE_AVX2
namespace avx2 {
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);
void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside);
void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key);
double nearest_distance_sq(const Vec2* pts, std::size_t n, std::size_t subject,
                           Vec2 from);
bool any_within_segment(const Vec2* pts, std::size_t n, const Segment& s,
                        double r, const std::size_t skip[3]);
std::size_t cone_skip(const Vec2* pts, std::size_t n, std::size_t i, Vec2 o,
                      Vec2 right, Vec2 left);
}  // namespace avx2
#endif

namespace {

/// The 128-bit level's public name depends on the architecture the wide128
/// TU was compiled for.
constexpr Level kWide128Level =
#if defined(__aarch64__) || defined(_M_ARM64)
    Level::kNeon;
#else
    Level::kSse2;
#endif

bool level_supported(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kSse2:
    case Level::kNeon:
#ifdef LUMEN_SIMD_HAVE_WIDE128
      return level == kWide128Level;
#else
      return false;
#endif
    case Level::kAvx2:
#ifdef LUMEN_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

/// -1 = not yet resolved; otherwise the int value of the active Level.
std::atomic<int> g_active{-1};

Level resolve_startup_level() noexcept {
  Level level = best_supported_level();
  if (const char* env = std::getenv("LUMEN_SIMD")) {
    const auto requested = level_from_string(env);
    if (requested.has_value() && level_supported(*requested)) {
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

}  // namespace

std::string_view to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

std::optional<Level> level_from_string(std::string_view s) noexcept {
  if (s == "scalar") return Level::kScalar;
  if (s == "sse2") return Level::kSse2;
  if (s == "neon") return Level::kNeon;
  if (s == "avx2") return Level::kAvx2;
  return std::nullopt;
}

Level best_supported_level() noexcept {
  if (level_supported(Level::kAvx2)) return Level::kAvx2;
  if (level_supported(kWide128Level)) return kWide128Level;
  return Level::kScalar;
}

Level active_level() noexcept {
  int v = g_active.load(std::memory_order_acquire);
  if (v < 0) {
    // Racing first calls both compute the same value; the store is
    // idempotent.
    const Level resolved = resolve_startup_level();
    g_active.store(static_cast<int>(resolved), std::memory_order_release);
    return resolved;
  }
  return static_cast<Level>(v);
}

bool set_active_level(Level level) noexcept {
  if (!level_supported(level)) return false;
  g_active.store(static_cast<int>(level), std::memory_order_release);
  return true;
}

void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch) {
  switch (active_level()) {
#ifdef LUMEN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      avx2::build_keys_soa(xs, ys, n, i, o, scratch);
      return;
#endif
#ifdef LUMEN_SIMD_HAVE_WIDE128
    case Level::kSse2:
    case Level::kNeon:
      wide128::build_keys_soa(xs, ys, n, i, o, scratch);
      return;
#endif
    default:
      scalar::build_keys_soa(xs, ys, n, i, o, scratch);
      return;
  }
}

void sort_angular_records(std::vector<std::uint64_t>& records,
                          std::vector<std::uint64_t>& tmp, float max_key) {
  switch (active_level()) {
#ifdef LUMEN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      avx2::sort_f32key_records(records, tmp, max_key);
      return;
#endif
#ifdef LUMEN_SIMD_HAVE_WIDE128
    case Level::kSse2:
    case Level::kNeon:
      wide128::sort_f32key_records(records, tmp, max_key);
      return;
#endif
    default:
      scalar::sort_f32key_records(records, tmp, max_key);
      return;
  }
}

void hull_cull_mask(const Vec2* pts, std::size_t n, const Vec2 quad[4],
                    std::uint8_t* inside) {
  switch (active_level()) {
#ifdef LUMEN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      avx2::hull_cull_mask(pts, n, quad, inside);
      return;
#endif
#ifdef LUMEN_SIMD_HAVE_WIDE128
    case Level::kSse2:
    case Level::kNeon:
      wide128::hull_cull_mask(pts, n, quad, inside);
      return;
#endif
    default:
      scalar::hull_cull_mask(pts, n, quad, inside);
      return;
  }
}

double nearest_distance_sq(const Vec2* pts, std::size_t n, std::size_t subject,
                           Vec2 from) {
  switch (active_level()) {
#ifdef LUMEN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      return avx2::nearest_distance_sq(pts, n, subject, from);
#endif
#ifdef LUMEN_SIMD_HAVE_WIDE128
    case Level::kSse2:
    case Level::kNeon:
      return wide128::nearest_distance_sq(pts, n, subject, from);
#endif
    default:
      return scalar::nearest_distance_sq(pts, n, subject, from);
  }
}

bool any_within_segment(const Vec2* pts, std::size_t n, const Segment& s,
                        double r, const std::size_t skip[3]) {
  switch (active_level()) {
#ifdef LUMEN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      return avx2::any_within_segment(pts, n, s, r, skip);
#endif
#ifdef LUMEN_SIMD_HAVE_WIDE128
    case Level::kSse2:
    case Level::kNeon:
      return wide128::any_within_segment(pts, n, s, r, skip);
#endif
    default:
      return scalar::any_within_segment(pts, n, s, r, skip);
  }
}

std::size_t cone_skip(const Vec2* pts, std::size_t n, std::size_t i, Vec2 o,
                      Vec2 right, Vec2 left) {
  switch (active_level()) {
#ifdef LUMEN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      return avx2::cone_skip(pts, n, i, o, right, left);
#endif
#ifdef LUMEN_SIMD_HAVE_WIDE128
    case Level::kSse2:
    case Level::kNeon:
      return wide128::cone_skip(pts, n, i, o, right, left);
#endif
    default:
      return scalar::cone_skip(pts, n, i, o, right, left);
  }
}

}  // namespace lumen::geom::simd
