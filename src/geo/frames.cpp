#include "geo/frames.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/units.hpp"

namespace qntn::geo {

double gmst_at(double sim_time_s, double gmst0) {
  return wrap_two_pi(gmst0 + kEarthRotationRate * sim_time_s);
}

Vec3 eci_to_ecef(const Vec3& eci, double gmst) {
  return eci_to_ecef(eci, std::cos(gmst), std::sin(gmst));
}

Vec3 ecef_to_eci(const Vec3& ecef, double gmst) {
  const double c = std::cos(gmst);
  const double s = std::sin(gmst);
  return {c * ecef.x - s * ecef.y, s * ecef.x + c * ecef.y, ecef.z};
}

TopocentricFrame::TopocentricFrame(const Geodetic& site, EarthModel model)
    : origin(geodetic_to_ecef(site, model)),
      sin_lat(std::sin(site.latitude)),
      cos_lat(std::cos(site.latitude)),
      sin_lon(std::sin(site.longitude)),
      cos_lon(std::cos(site.longitude)) {}

AzElRange look_angles(const TopocentricFrame& frame, const Vec3& target) {
  const Vec3 d = target - frame.origin;
  const double slat = frame.sin_lat;
  const double clat = frame.cos_lat;
  const double slon = frame.sin_lon;
  const double clon = frame.cos_lon;

  // ENU basis expressed in ECEF.
  const double east = -slon * d.x + clon * d.y;
  const double north = -slat * clon * d.x - slat * slon * d.y + clat * d.z;
  const double up = frame.up(d);

  AzElRange out;
  out.range = d.norm();
  out.elevation = std::atan2(up, std::hypot(east, north));
  out.azimuth = wrap_two_pi(std::atan2(east, north));
  return out;
}

AzElRange look_angles(const Geodetic& site, const Vec3& target, EarthModel model) {
  return look_angles(TopocentricFrame(site, model), target);
}

double geocentre_clearance(const Vec3& a, const Vec3& b) {
  // Closest approach of segment ab to the geocentre.
  const Vec3 ab = b - a;
  const double len_sq = ab.norm_sq();
  double t = len_sq > 0.0 ? -a.dot(ab) / len_sq : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const Vec3 closest = a + t * ab;
  return closest.norm();
}

bool line_of_sight(const Vec3& a, const Vec3& b, double clearance_radius) {
  return geocentre_clearance(a, b) >= clearance_radius;
}

}  // namespace qntn::geo
