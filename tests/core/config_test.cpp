#include "core/qntn_config.hpp"

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/units.hpp"
#include "orbit/constellation.hpp"

namespace qntn::core {
namespace {

TEST(Config, PaperDefaults) {
  const QntnConfig config;
  EXPECT_DOUBLE_EQ(config.transmissivity_threshold, 0.7);
  EXPECT_NEAR(config.elevation_mask, kPi / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(config.fiber_attenuation_db_per_km, 0.15);
  EXPECT_DOUBLE_EQ(orbit::kQntnAltitude, 500'000.0);
  EXPECT_DOUBLE_EQ(config.ephemeris_step, 30.0);
  EXPECT_DOUBLE_EQ(config.day_duration, 86'400.0);
  EXPECT_EQ(config.request_count, 100u);
  EXPECT_EQ(config.request_steps, 100u);
  EXPECT_NEAR(rad_to_deg(config.hap_position.latitude), 35.6692, 1e-9);
  EXPECT_NEAR(rad_to_deg(config.hap_position.longitude), -85.0662, 1e-9);
  EXPECT_DOUBLE_EQ(config.hap_position.altitude, 30'000.0);
}

TEST(Config, LinkPolicyDerivation) {
  QntnConfig config;
  config.transmissivity_threshold = 0.55;
  config.wavelength = 1550e-9;
  config.enable_hap_satellite = true;
  const sim::LinkPolicy policy = config.link_policy();
  EXPECT_DOUBLE_EQ(policy.transmissivity_threshold, 0.55);
  EXPECT_DOUBLE_EQ(policy.fso.wavelength, 1550e-9);
  EXPECT_TRUE(policy.enable_hap_satellite);
  EXPECT_DOUBLE_EQ(policy.fiber_attenuation_db_per_km, 0.15);
}

TEST(Config, ScenarioConfigSpreadsRequestStepsOverTheDay) {
  const QntnConfig config;
  const sim::ScenarioConfig sc = config.scenario_config();
  EXPECT_EQ(sc.request_steps, 100u);
  EXPECT_DOUBLE_EQ(sc.request_step_interval, 864.0);
  EXPECT_DOUBLE_EQ(
      sc.request_step_interval * static_cast<double>(sc.request_steps),
      config.day_duration);
}

TEST(Config, TerminalsCarryApertures) {
  const QntnConfig config;
  EXPECT_DOUBLE_EQ(config.ground_terminal().aperture_radius, 1.20);
  EXPECT_DOUBLE_EQ(config.satellite_terminal().aperture_radius, 1.20);
  EXPECT_DOUBLE_EQ(config.hap_terminal().aperture_radius, 0.30);
}

TEST(Config, WeatherPropagatesIntoPolicy) {
  QntnConfig config;
  config.weather = channel::haze();
  const sim::LinkPolicy policy = config.link_policy();
  EXPECT_EQ(policy.fso.weather.name, "haze");
  EXPECT_GT(policy.fso.weather.optical_depth_factor, 1.0);
}

}  // namespace
}  // namespace qntn::core
