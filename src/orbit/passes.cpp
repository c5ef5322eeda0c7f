#include "orbit/passes.hpp"

#include <algorithm>

#include "geo/frames.hpp"

namespace qntn::orbit {

namespace {

double elevation_at(const Ephemeris& ephemeris,
                    const geo::TopocentricFrame& site, double t) {
  return geo::look_angles(site, ephemeris.position_ecef(t)).elevation;
}

/// Bisect the elevation-mask crossing within [lo, hi]; `rising` selects the
/// crossing direction. Preconditions: the crossing is bracketed.
double refine_crossing(const Ephemeris& ephemeris,
                       const geo::TopocentricFrame& site, double mask,
                       double lo, double hi, bool rising) {
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const bool above = elevation_at(ephemeris, site, mid) >= mask;
    if (above == rising) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo < 1e-3) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::vector<Pass> find_passes(const Ephemeris& ephemeris,
                              const geo::Geodetic& site_geodetic,
                              double duration, double min_elevation,
                              double step) {
  (void)grid_sample_count(duration, step);  // finite, positive, bounded
  // Hoist the site's ENU frame out of the scan: every elevation sample
  // otherwise re-derives the site ECEF position and basis trigonometry.
  const geo::TopocentricFrame site(site_geodetic);
  // Horizon screen: a grid point with ENU up <= 0 has elevation
  // atan2(up <= 0, .) <= 0, below any positive mask, so it skips the
  // atan2/hypot. TopocentricFrame::up is the expression look_angles uses,
  // so the screen cannot disagree with the exact test.
  const bool screen = min_elevation > 0.0;
  std::vector<Pass> passes;
  const double elevation0 = elevation_at(ephemeris, site, 0.0);
  bool in_pass = elevation0 >= min_elevation;
  Pass current;
  if (in_pass) {
    current.aos = 0.0;
    current.max_elevation = elevation0;
    current.culmination = 0.0;
  }
  double prev_t = 0.0;
  for (std::size_t k = 1; prev_t < duration; ++k) {
    const double t = std::min(static_cast<double>(k) * step, duration);
    const Vec3 position = ephemeris.position_ecef(t);
    double elevation = 0.0;
    bool above = false;
    if (!screen || site.up(position - site.origin) > 0.0) {
      elevation = geo::look_angles(site, position).elevation;
      above = elevation >= min_elevation;
    }
    if (above && !in_pass) {
      current = Pass{};
      current.aos = refine_crossing(ephemeris, site, min_elevation, prev_t, t,
                                    /*rising=*/true);
      current.max_elevation = elevation;
      current.culmination = t;
      in_pass = true;
    } else if (above && in_pass) {
      if (elevation > current.max_elevation) {
        current.max_elevation = elevation;
        current.culmination = t;
      }
    } else if (!above && in_pass) {
      current.los = refine_crossing(ephemeris, site, min_elevation, prev_t, t,
                                    /*rising=*/false);
      passes.push_back(current);
      in_pass = false;
    }
    prev_t = t;
  }
  if (in_pass) {
    current.los = duration;
    passes.push_back(current);
  }
  return passes;
}

PassStatistics summarize_passes(const std::vector<Pass>& passes) {
  PassStatistics stats;
  stats.count = passes.size();
  for (const Pass& pass : passes) {
    stats.total_contact += pass.duration();
    stats.max_elevation = std::max(stats.max_elevation, pass.max_elevation);
  }
  if (stats.count > 0) {
    stats.mean_duration = stats.total_contact / static_cast<double>(stats.count);
  }
  return stats;
}

}  // namespace qntn::orbit
