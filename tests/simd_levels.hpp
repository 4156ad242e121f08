// Level enumeration for tests that run a kernel at every SIMD dispatch
// level this binary supports on this host (geom/simd.hpp).
#pragma once

#include "geom/simd.hpp"

#include <vector>

namespace lumen {

/// Every level set_active_level accepts here, scalar first. Leaves the
/// best supported level active.
inline std::vector<geom::simd::Level> supported_levels() {
  using geom::simd::Level;
  std::vector<Level> levels;
  for (Level level : {Level::kScalar, Level::kSse2, Level::kNeon, Level::kAvx2}) {
    if (geom::simd::set_active_level(level)) levels.push_back(level);
  }
  geom::simd::set_active_level(geom::simd::best_supported_level());
  return levels;
}

/// Restores the default dispatch choice when a test exits, even on failure.
struct LevelGuard {
  ~LevelGuard() {
    geom::simd::set_active_level(geom::simd::best_supported_level());
  }
};

}  // namespace lumen
