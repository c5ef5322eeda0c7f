#pragma once

#include <vector>

#include "geo/geodetic.hpp"
#include "orbit/ephemeris.hpp"

/// \file passes.hpp
/// Satellite pass prediction over a ground site: acquisition-of-signal /
/// loss-of-signal times above an elevation mask, with the culmination
/// point. Explains the structure behind the paper's Fig. 6 coverage curve
/// (a 500 km pass above 25-30 degrees lasts only a few minutes, which is
/// why every added 6-satellite plane buys a nearly constant slice of
/// coverage).

namespace qntn::orbit {

struct Pass {
  double aos = 0.0;            ///< acquisition of signal [s]
  double los = 0.0;            ///< loss of signal [s]
  double culmination = 0.0;    ///< time of maximum elevation [s]
  double max_elevation = 0.0;  ///< [rad]

  [[nodiscard]] double duration() const { return los - aos; }
};

/// Find all passes of `ephemeris` over `site` with elevation above
/// `min_elevation` within [0, duration]. Every scan grid point t = k * step
/// (the last one clipped to `duration`) is classified; a point at or below
/// the horizon skips the elevation evaluation when the mask is positive
/// (exact: such a point has elevation <= 0). Crossings are bracketed by the
/// preceding grid step and refined by bisection to ~1 ms. A pass in
/// progress at t = 0 starts at aos = 0; one still in progress at the end
/// closes at los = duration. This is the contact-plan compiler's pass
/// search.
[[nodiscard]] std::vector<Pass> find_passes(const Ephemeris& ephemeris,
                                            const geo::Geodetic& site,
                                            double duration,
                                            double min_elevation,
                                            double step = 30.0);

/// Aggregate statistics of a pass list.
struct PassStatistics {
  std::size_t count = 0;
  double total_contact = 0.0;   ///< [s]
  double mean_duration = 0.0;   ///< [s]
  double max_elevation = 0.0;   ///< best culmination [rad]
};
[[nodiscard]] PassStatistics summarize_passes(const std::vector<Pass>& passes);

}  // namespace qntn::orbit
