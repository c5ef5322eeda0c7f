#pragma once

#include <cstddef>
#include <vector>

#include "orbit/elements.hpp"

/// \file constellation.hpp
/// Constellation generators. Two layers:
///  - a generic Walker-Delta generator (i:t/p/f notation), and
///  - the exact layout of the paper's Table II: 18 planes at the RAAN values
///    {0,60,...,300} ∪ {20,40,80,100,140,160,200,220,260,280,320,340} with 6
///    satellites per plane at true anomalies {0,60,...,300}, a = 6871 km,
///    i = 53 deg, circular. Sizes from 6 to 108 in steps of 6 are obtained by
///    taking whole planes in the paper's fill order (the 60-degree Walker
///    planes first, then the gap-filling planes).

namespace qntn::orbit {

/// Altitude of the paper's constellation [m] (Table II): semi-major axis
/// 6871 km over the mean Earth radius.
inline constexpr double kQntnAltitude = 500'000.0;

/// Walker-Delta constellation i:t/p/f — t satellites total, p equally spaced
/// planes, phasing factor f; all circular at the given semi-major axis and
/// inclination. Satellite s of plane k has RAAN = k*2*pi/p and true anomaly
/// = s*2*pi*(p/t)*... following the standard Walker phasing rule
/// nu = 2*pi*(s/(t/p)) + 2*pi*f*k/t.
[[nodiscard]] std::vector<KeplerianElements> walker_delta(
    double semi_major_axis, double inclination, std::size_t total,
    std::size_t planes, std::size_t phasing);

/// One orbital plane of the paper's layout: `count` satellites equally spaced
/// in true anomaly starting at 0 deg, at the given RAAN.
[[nodiscard]] std::vector<KeplerianElements> plane_of(
    double semi_major_axis, double inclination, double raan,
    std::size_t count);

/// RAAN fill order [deg] of the paper's constellation: the six Walker planes
/// spaced 60 deg apart, then the twelve gap planes so all 18 end up 20 deg
/// apart (Table II / Section II-B).
[[nodiscard]] const std::vector<double>& qntn_plane_raans_deg();

/// The paper's constellation truncated to `n_satellites` (must be a positive
/// multiple of 6, at most 108). Semi-major axis 6871 km, inclination 53 deg,
/// circular orbits.
[[nodiscard]] std::vector<KeplerianElements> qntn_constellation(
    std::size_t n_satellites);

}  // namespace qntn::orbit
