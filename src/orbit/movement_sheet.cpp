#include "orbit/movement_sheet.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/error.hpp"
#include "common/units.hpp"
#include "geo/geodetic.hpp"

namespace qntn::orbit {

namespace {

constexpr const char* kHeader = "time_s,latitude_deg,longitude_deg,altitude_m";

[[noreturn]] void fail_at(std::size_t line_number, const std::string& what) {
  throw Error("movement sheet line " + std::to_string(line_number) + ": " +
              what);
}

// One field of a row: a finite number that the whole field spells, blanks
// around it allowed.
bool parse_field(std::string_view field, double& value) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!field.empty() && blank(field.front())) field.remove_prefix(1);
  while (!field.empty() && blank(field.back())) field.remove_suffix(1);
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  return ec == std::errc() && ptr == end && std::isfinite(value);
}

struct Row {
  double time = 0.0;
  geo::Geodetic position;
};

// A data row: exactly four finite numbers, latitude and longitude on the
// globe, altitude at least kMinAltitudeM.
Row parse_row(std::string_view line, std::size_t line_number) {
  double values[4] = {};
  for (std::size_t k = 0; k < 4; ++k) {
    // The first three fields end at a comma, the fourth at the line's end.
    const std::size_t comma = line.find(',');
    if ((comma == std::string_view::npos) != (k == 3) ||
        !parse_field(line.substr(0, comma), values[k])) {
      fail_at(line_number,
              std::string("malformed row, want four finite numbers ") +
                  kHeader);
    }
    line.remove_prefix(k == 3 ? line.size() : comma + 1);
  }
  const auto [t, lat, lon, alt] = values;
  if (std::fabs(lat) > 90.0) {
    fail_at(line_number, "latitude_deg must be in [-90, 90]");
  }
  if (std::fabs(lon) > 180.0) {
    fail_at(line_number, "longitude_deg must be in [-180, 180]");
  }
  if (alt < kMinAltitudeM) {
    fail_at(line_number, "altitude_m must be >= " +
                             std::to_string(static_cast<int>(kMinAltitudeM)));
  }
  return {t, geo::Geodetic::from_degrees(lat, lon, alt)};
}

}  // namespace

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
    fail_at(1, std::string("missing or unexpected header, want ") + kHeader);
  }
  std::vector<Vec3> samples;
  std::vector<double> times;
  std::vector<std::size_t> line_numbers;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const Row row = parse_row(line, line_number);
    times.push_back(row.time);
    samples.push_back(geo::geodetic_to_ecef(row.position));
    line_numbers.push_back(line_number);
  }
  if (samples.size() < 2) {
    throw Error("movement sheet: needs at least two sample lines, found " +
                std::to_string(samples.size()));
  }
  if (std::fabs(times.front()) > 1e-9) {
    fail_at(line_numbers.front(), "times must start at 0");
  }
  const double step = times[1] - times[0];
  if (step <= 0.0) fail_at(line_numbers[1], "time step must be positive");
  // Uniform spacing, except that the last row may end a partial step.
  const std::size_t last = times.size() - 1;
  for (std::size_t i = 1; i <= last; ++i) {
    const double grid = static_cast<double>(i) * step;
    const bool partial = i == last && i > 1 && times[i] < grid &&
                         times[i] > grid - step;
    if (std::fabs(times[i] - grid) > 1e-6 && !partial) {
      fail_at(line_numbers[i], "non-uniform time spacing");
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
