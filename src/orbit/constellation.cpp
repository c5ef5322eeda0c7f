#include "orbit/constellation.hpp"

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace qntn::orbit {

std::vector<KeplerianElements> walker_delta(double semi_major_axis,
                                            double inclination,
                                            std::size_t total,
                                            std::size_t planes,
                                            std::size_t phasing) {
  QNTN_REQUIRE(planes > 0 && total > 0 && total % planes == 0,
               "walker_delta: total must be a positive multiple of planes");
  QNTN_REQUIRE(phasing < planes, "walker_delta: phasing factor f must be < p");
  const std::size_t per_plane = total / planes;
  std::vector<KeplerianElements> out;
  out.reserve(total);
  for (std::size_t k = 0; k < planes; ++k) {
    const double raan = kTwoPi * static_cast<double>(k) / static_cast<double>(planes);
    for (std::size_t s = 0; s < per_plane; ++s) {
      KeplerianElements el;
      el.semi_major_axis = semi_major_axis;
      el.eccentricity = 0.0;
      el.inclination = inclination;
      el.raan = raan;
      el.arg_perigee = 0.0;
      el.true_anomaly = wrap_two_pi(
          kTwoPi * static_cast<double>(s) / static_cast<double>(per_plane) +
          kTwoPi * static_cast<double>(phasing) * static_cast<double>(k) /
              static_cast<double>(total));
      out.push_back(el);
    }
  }
  return out;
}

std::vector<KeplerianElements> plane_of(double semi_major_axis,
                                        double inclination, double raan,
                                        std::size_t count) {
  QNTN_REQUIRE(count > 0, "plane_of: count must be positive");
  std::vector<KeplerianElements> out;
  out.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    KeplerianElements el;
    el.semi_major_axis = semi_major_axis;
    el.eccentricity = 0.0;
    el.inclination = inclination;
    el.raan = wrap_two_pi(raan);
    el.arg_perigee = 0.0;
    el.true_anomaly = kTwoPi * static_cast<double>(s) / static_cast<double>(count);
    out.push_back(el);
  }
  return out;
}

const std::vector<double>& qntn_plane_raans_deg() {
  // Section II-B: first the 6 Walker planes at 60-degree spacing, then 12
  // additional planes filling the gaps so that all planes are 20 deg apart.
  static const std::vector<double> raans = {
      0.0,  60.0,  120.0, 180.0, 240.0, 300.0,            // Walker planes
      20.0, 40.0,  80.0,  100.0, 140.0, 160.0,            // gap planes
      200.0, 220.0, 260.0, 280.0, 320.0, 340.0,
  };
  return raans;
}

std::vector<KeplerianElements> qntn_constellation(std::size_t n_satellites) {
  QNTN_REQUIRE(n_satellites > 0 && n_satellites % 6 == 0 && n_satellites <= 108,
               "qntn_constellation: size must be a multiple of 6 in [6, 108]");
  constexpr double kSemiMajorAxis = kEarthRadius + kQntnAltitude;
  const double inclination = deg_to_rad(53.0);
  const std::size_t planes = n_satellites / 6;
  std::vector<KeplerianElements> out;
  out.reserve(n_satellites);
  const std::vector<double>& raans = qntn_plane_raans_deg();
  for (std::size_t k = 0; k < planes; ++k) {
    const auto plane = plane_of(kSemiMajorAxis, inclination,
                                deg_to_rad(raans[k]), 6);
    out.insert(out.end(), plane.begin(), plane.end());
  }
  return out;
}

}  // namespace qntn::orbit
