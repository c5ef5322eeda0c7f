#include "core/experiments.hpp"

#include <gtest/gtest.h>

namespace qntn::core {
namespace {

/// Shrink the paper workload so the suite stays fast; invariants are
/// workload-size independent.
QntnConfig quick() {
  QntnConfig config;
  config.day_duration = 21'600.0;  // 6 hours
  config.ephemeris_step = 60.0;
  config.request_count = 25;
  config.request_steps = 8;
  return config;
}

TEST(Fig5, SweepShapeAndEndpoints) {
  const auto sweep =
      fig5_fidelity_sweep(quantum::FidelityConvention::Uhlmann, 0.01);
  ASSERT_EQ(sweep.size(), 101u);
  EXPECT_DOUBLE_EQ(sweep.front().transmissivity, 0.0);
  EXPECT_DOUBLE_EQ(sweep.back().transmissivity, 1.0);
  EXPECT_NEAR(sweep.front().fidelity_simulated, 0.5, 1e-9);
  EXPECT_NEAR(sweep.back().fidelity_simulated, 1.0, 1e-9);
  // Monotone, and the density-matrix pipeline matches the closed form.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_NEAR(sweep[i].fidelity_simulated, sweep[i].fidelity_closed_form,
                1e-9);
    if (i > 0) {
      EXPECT_GT(sweep[i].fidelity_simulated, sweep[i - 1].fidelity_simulated);
    }
  }
}

TEST(Fig5, PaperThresholdReading) {
  // Under the paper's (sqrt) convention, 90% fidelity is reached just below
  // eta = 0.7 — consistent with the paper picking 0.7 as the threshold.
  const auto sweep =
      fig5_fidelity_sweep(quantum::FidelityConvention::Uhlmann, 0.01);
  const double eta_90 = transmissivity_threshold_for(sweep, 0.90);
  EXPECT_NEAR(eta_90, 0.64, 0.02);
  EXPECT_GT(sweep[70].fidelity_simulated, 0.9);  // eta = 0.70 clears 90%
}

TEST(Fig5, JozsaConventionDoesNotReproduceThePaperReading) {
  const auto sweep =
      fig5_fidelity_sweep(quantum::FidelityConvention::Jozsa, 0.01);
  EXPECT_LT(sweep[70].fidelity_simulated, 0.9);  // the documented mismatch
}

TEST(Sizes, PaperSweepGrid) {
  const auto sizes = paper_constellation_sizes();
  ASSERT_EQ(sizes.size(), 18u);
  EXPECT_EQ(sizes.front(), 6u);
  EXPECT_EQ(sizes.back(), 108u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i] - sizes[i - 1], 6u);
  }
}

TEST(SpaceGround, SmallVsLargeConstellation) {
  const QntnConfig config = quick();
  const ArchitectureMetrics small = evaluate_space_ground(config, 6);
  const ArchitectureMetrics large = evaluate_space_ground(config, 48);
  EXPECT_EQ(small.satellites, 6u);
  // More satellites -> more coverage and more served requests.
  EXPECT_GT(large.coverage_percent, small.coverage_percent);
  EXPECT_GE(large.served_percent, small.served_percent);
  EXPECT_LE(large.coverage_percent, 100.0);
  // Fidelity of served requests obeys the threshold floor (2 FSO hops).
  if (small.mean_fidelity > 0.0) {
    EXPECT_GT(small.mean_fidelity,
              quantum::bell_fidelity_after_damping(
                  0.49, quantum::FidelityConvention::Uhlmann));
  }
}

TEST(SpaceGround, SweepRunsInParallelDeterministically) {
  const QntnConfig config = quick();
  ThreadPool pool(4);
  const std::vector<std::size_t> sizes{6, 12};
  const auto parallel = space_ground_sweep(config, sizes, pool);
  ASSERT_EQ(parallel.size(), 2u);
  const ArchitectureMetrics serial0 = evaluate_space_ground(config, 6);
  EXPECT_DOUBLE_EQ(parallel[0].coverage_percent, serial0.coverage_percent);
  EXPECT_DOUBLE_EQ(parallel[0].served_percent, serial0.served_percent);
}

TEST(SpaceGround, TrafficServedPercentIsRequestWeighted) {
  // A traffic day at 0.01 arrivals/s per LAN with diurnal amplitude 1:
  // every LAN is silent at night, so many of the 96 windows issue nothing.
  // served_percent counts requests, not windows, so those windows do not
  // pull it down.
  QntnConfig config;
  config.serving_mode = ServingMode::Traffic;
  config.traffic_arrival_rate = 0.01;
  config.traffic_diurnal_amplitude = 1.0;
  config.request_steps = 96;
  const ArchitectureMetrics m = evaluate_space_ground(config, 36);
  ASSERT_GT(m.requests_issued, 0u);
  ASSERT_GT(m.requests_served, 0u);
  EXPECT_DOUBLE_EQ(m.served_percent,
                   100.0 * static_cast<double>(m.requests_served) /
                       static_cast<double>(m.requests_issued));
}

TEST(AirGround, PaperHeadlineInvariants) {
  const QntnConfig config = quick();
  const ArchitectureMetrics air = evaluate_air_ground(config);
  EXPECT_DOUBLE_EQ(air.coverage_percent, 100.0);
  EXPECT_DOUBLE_EQ(air.served_percent, 100.0);
  EXPECT_GT(air.mean_fidelity, 0.9);
}

TEST(Table3, AirGroundDominatesSpaceGround) {
  // Needs the full 108-satellite constellation: with only a handful of
  // satellites the rare served requests all ride near-zenith passes whose
  // fidelity beats the HAP's fixed ~22-degree geometry, and the paper's
  // fidelity ordering only emerges once marginal passes are also served.
  const QntnConfig config = quick();
  const auto rows = table3_comparison(config, 108);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].architecture, "space-ground");
  EXPECT_EQ(rows[1].architecture, "air-ground");
  // The paper's qualitative Table III ordering under ideal conditions.
  EXPECT_GT(rows[1].coverage_percent, rows[0].coverage_percent);
  EXPECT_GT(rows[1].served_percent, rows[0].served_percent);
  EXPECT_GT(rows[1].mean_fidelity, rows[0].mean_fidelity);
}

TEST(Hybrid, AtLeastAsGoodAsEitherPureArchitecture) {
  QntnConfig config = quick();
  config.enable_hap_satellite = true;
  const ArchitectureMetrics hybrid = evaluate_hybrid(config, 12);
  const ArchitectureMetrics space = evaluate_space_ground(config, 12);
  const ArchitectureMetrics air = evaluate_air_ground(config);
  EXPECT_GE(hybrid.coverage_percent + 1e-9, space.coverage_percent);
  EXPECT_GE(hybrid.coverage_percent + 1e-9, air.coverage_percent);
  EXPECT_GE(hybrid.served_percent + 1e-9, space.served_percent);
}

}  // namespace
}  // namespace qntn::core
