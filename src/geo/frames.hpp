#pragma once

#include "common/vec3.hpp"
#include "geo/geodetic.hpp"

/// \file frames.hpp
/// Reference-frame transforms used by the orbit propagator and the link
/// geometry: Earth-centred inertial (ECI, true-of-date approximation) to
/// Earth-centred Earth-fixed (ECEF) via Greenwich Mean Sidereal Time, and
/// ECEF to a topocentric East-North-Up (ENU) frame for azimuth/elevation.
///
/// This replaces the Ansys STK geometry pipeline the paper used; for
/// circular LEO over a single simulated day the simple GMST rotation agrees
/// with STK's high-fidelity frames far below the sensitivity of the FSO
/// link budget (see DESIGN.md §1).

namespace qntn::geo {

/// Greenwich Mean Sidereal Time [rad] for a simulation clock that starts at
/// gmst0 and advances at the sidereal rate. The absolute epoch is arbitrary
/// for this study (the paper reports daily totals, not wall-clock times), so
/// we parameterise on the initial angle.
[[nodiscard]] double gmst_at(double sim_time_s, double gmst0 = 0.0);

/// Rotate an ECI vector into ECEF given the Greenwich sidereal angle.
[[nodiscard]] Vec3 eci_to_ecef(const Vec3& eci, double gmst);

/// As above, from the angle's cosine and sine: bit-identical to
/// eci_to_ecef(eci, gmst) for cos_gmst = cos(gmst), sin_gmst = sin(gmst),
/// so callers that rotate many vectors by one angle evaluate it once.
[[nodiscard]] inline Vec3 eci_to_ecef(const Vec3& eci, double cos_gmst,
                                      double sin_gmst) {
  // ECEF = R3(gmst) * ECI (rotation about +Z by +gmst).
  return {cos_gmst * eci.x + sin_gmst * eci.y,
          -sin_gmst * eci.x + cos_gmst * eci.y, eci.z};
}

/// Rotate an ECEF vector into ECI given the Greenwich sidereal angle.
[[nodiscard]] Vec3 ecef_to_eci(const Vec3& ecef, double gmst);

/// Topocentric look angles from an observer to a target, both in ECEF [m].
struct AzElRange {
  double azimuth = 0.0;    ///< [rad], clockwise from north
  double elevation = 0.0;  ///< [rad], above the local horizontal plane
  double range = 0.0;      ///< [m], slant range
};

/// Compute az/el/range from an observer at geodetic position `site`
/// (defining the local ENU frame) to a target at ECEF `target`.
[[nodiscard]] AzElRange look_angles(const Geodetic& site, const Vec3& target,
                                    EarthModel model = EarthModel::Wgs84);

/// Precomputed ENU frame of a fixed observer: its ECEF position plus the
/// latitude/longitude sines and cosines that define the basis. Sweeps that
/// evaluate one site against many target positions (pass prediction, the
/// contact-plan compiler) hoist this out of the inner loop; the per-site
/// trigonometry is otherwise recomputed on every look_angles call. Results
/// are bit-identical to the Geodetic overload, which delegates here.
struct TopocentricFrame {
  explicit TopocentricFrame(const Geodetic& site,
                            EarthModel model = EarthModel::Wgs84);

  /// Up component [m] of the ENU offset `d` = target - origin: the sign of
  /// the target's elevation (up <= 0 means at or below the horizon, so
  /// elevation <= 0). look_angles computes its elevation from this same
  /// expression, so a horizon skip on it cannot disagree with the exact
  /// elevation test.
  [[nodiscard]] double up(const Vec3& d) const {
    return cos_lat * cos_lon * d.x + cos_lat * sin_lon * d.y + sin_lat * d.z;
  }

  Vec3 origin;        ///< site position, ECEF [m]
  double sin_lat = 0.0;
  double cos_lat = 0.0;
  double sin_lon = 0.0;
  double cos_lon = 0.0;
};

/// Az/el/range from a precomputed observer frame to a target at ECEF
/// `target`. Bit-identical to look_angles(site, target) for the frame's
/// site.
[[nodiscard]] AzElRange look_angles(const TopocentricFrame& frame,
                                    const Vec3& target);

/// Closest-approach distance [m] of the straight segment between two ECEF
/// points to the geocentre.
[[nodiscard]] double geocentre_clearance(const Vec3& a, const Vec3& b);

/// True if the straight segment between two ECEF points clears a sphere of
/// radius `clearance_radius` centred at the geocentre (Earth-obstruction
/// test for inter-satellite links; pass kEarthRadius + grazing altitude).
[[nodiscard]] bool line_of_sight(const Vec3& a, const Vec3& b,
                                 double clearance_radius);

}  // namespace qntn::geo
