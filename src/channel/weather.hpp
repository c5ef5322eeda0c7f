#pragma once

#include <string_view>

/// \file weather.hpp
/// Weather profiles for the FSO channel. The paper assumes ideal conditions
/// ("stable weather, stable flight") and flags weather sensitivity as future
/// work; these profiles implement that future-work axis so the extension
/// benches can quantify the degradation. Each profile scales three physical
/// inputs: clear-air zenith transmittance, ground-level turbulence strength,
/// and platform pointing jitter (HAP vibration sensitivity).

namespace qntn::channel {

struct WeatherProfile {
  std::string_view name = "clear";
  /// Multiplies ExtinctionModel::zenith_transmittance's optical depth
  /// (1 = clear; larger = more absorption).
  double optical_depth_factor = 1.0;
  /// Multiplies the HV profile's ground Cn^2 (daytime convection, wind).
  double turbulence_factor = 1.0;
  /// Adds RMS pointing jitter [rad] on aerial platforms (HAP vibration).
  double platform_jitter = 0.0;

  constexpr bool operator==(const WeatherProfile&) const = default;
};

/// Paper baseline: the "perfect setup and ideal conditions" of Section III-D.
[[nodiscard]] constexpr WeatherProfile clear_sky() { return {}; }

/// Light haze: noticeably higher extinction, mildly stronger turbulence.
[[nodiscard]] constexpr WeatherProfile haze() {
  return {"haze", 4.0, 1.5, 1.0e-6};
}

/// Convective daytime air: strong low-altitude turbulence.
[[nodiscard]] constexpr WeatherProfile strong_turbulence() {
  return {"strong_turbulence", 1.5, 5.0, 2.0e-6};
}

/// Thin cloud / light rain: heavy extinction; FSO largely unusable.
[[nodiscard]] constexpr WeatherProfile light_rain() {
  return {"light_rain", 12.0, 2.0, 4.0e-6};
}

}  // namespace qntn::channel
