#include "orbit/movement_sheet.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "common/units.hpp"
#include "geo/geodetic.hpp"

namespace qntn::orbit {

namespace {
constexpr const char* kHeader = "time_s,latitude_deg,longitude_deg,altitude_m";
}

std::string movement_sheet_to_string(const Ephemeris& ephemeris) {
  std::ostringstream os;
  os << kHeader << '\n';
  os << std::fixed << std::setprecision(6);
  for (std::size_t i = 0; i < ephemeris.sample_count(); ++i) {
    const geo::Geodetic g = geo::ecef_to_geodetic(ephemeris.sample(i));
    os << ephemeris.sample_time(i) << ','
       << rad_to_deg(g.latitude) << ',' << rad_to_deg(g.longitude) << ','
       << g.altitude << '\n';
  }
  return os.str();
}

void save_movement_sheet(const std::string& path, const Ephemeris& ephemeris) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open movement sheet for writing: " + path);
  out << movement_sheet_to_string(ephemeris);
  if (!out) throw Error("write failed: " + path);
}

Ephemeris movement_sheet_from_string(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw Error("movement sheet: missing or unexpected header");
  }
  std::vector<Vec3> samples;
  std::vector<double> times;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream row(line);
    double t = 0.0, lat = 0.0, lon = 0.0, alt = 0.0;
    char c1 = 0, c2 = 0, c3 = 0;
    if (!(row >> t >> c1 >> lat >> c2 >> lon >> c3 >> alt) || c1 != ',' ||
        c2 != ',' || c3 != ',') {
      throw Error("movement sheet: malformed row at line " +
                  std::to_string(line_number));
    }
    times.push_back(t);
    samples.push_back(geo::geodetic_to_ecef(
        geo::Geodetic::from_degrees(lat, lon, alt)));
  }
  if (samples.size() < 2) {
    throw Error("movement sheet: needs at least two samples");
  }
  const double step = times[1] - times[0];
  if (step <= 0.0 || std::fabs(times.front()) > 1e-9) {
    throw Error("movement sheet: times must start at 0 with positive step");
  }
  // Uniform spacing, except that the last row may end a partial step.
  const std::size_t last = times.size() - 1;
  for (std::size_t i = 1; i <= last; ++i) {
    const double grid = static_cast<double>(i) * step;
    const bool partial = i == last && i > 1 && times[i] < grid &&
                         times[i] > grid - step;
    if (std::fabs(times[i] - grid) > 1e-6 && !partial) {
      throw Error("movement sheet: non-uniform time spacing at row " +
                  std::to_string(i));
    }
  }
  const double full = static_cast<double>(last) * step;
  if (std::fabs(times[last] - full) > 1e-6) {
    return Ephemeris(std::move(samples), step, times[last]);
  }
  return Ephemeris(std::move(samples), step);
}

Ephemeris load_movement_sheet(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open movement sheet: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return movement_sheet_from_string(buffer.str());
}

}  // namespace qntn::orbit
