#pragma once

#include <string>

#include "orbit/ephemeris.hpp"

/// \file movement_sheet.hpp
/// "Movement sheet" I/O. The paper's workflow exports per-satellite
/// position tables from Ansys STK (30-second sampling over a day) and
/// imports them into the upgraded QuNetSim, mapping each sheet to a
/// satellite's movement list (Section III-C). These functions provide the
/// same interchange format as CSV so externally produced trajectories (an
/// actual STK export, a TLE propagator, flight logs for a HAP) can be
/// loaded into the simulator, and our own ephemerides can be exported for
/// inspection.
///
/// Format: a header line then one row per sample,
///   time_s,latitude_deg,longitude_deg,altitude_m
/// with strictly uniform time spacing starting at 0 (the last row may end a
/// partial step). Each row is exactly four finite numbers, blanks around
/// them allowed; latitude in [-90, 90], longitude in [-180, 180], altitude
/// at least kMinAltitudeM. Blank lines are skipped.

namespace qntn::orbit {

/// Lowest altitude a movement sheet may carry [m]: below the deepest ocean
/// floor (about -10.9 km), so a sign-flipped orbit altitude is rejected.
inline constexpr double kMinAltitudeM = -11'000.0;

/// Write an ephemeris as a movement sheet. Throws qntn::Error on I/O
/// failure.
void save_movement_sheet(const std::string& path, const Ephemeris& ephemeris);

/// Load a movement sheet into an Ephemeris. Throws qntn::Error on missing
/// file, malformed or out-of-range rows, fewer than two samples, or
/// non-uniform spacing; every error about a row names its file line.
[[nodiscard]] Ephemeris load_movement_sheet(const std::string& path);

/// Serialize to/from an in-memory string (same format; used by tests and
/// by callers that transport sheets without touching the filesystem).
[[nodiscard]] std::string movement_sheet_to_string(const Ephemeris& ephemeris);
[[nodiscard]] Ephemeris movement_sheet_from_string(const std::string& text);

}  // namespace qntn::orbit
