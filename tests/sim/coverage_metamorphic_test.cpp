#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "sim/coverage.hpp"

// Metamorphic relation for Eq. (6)/(7): a link that meets a transmissivity
// threshold meets every lower one, so raising the threshold only removes
// edges. At every grid step, each LAN pair connected at a higher threshold
// is connected at every lower one, and coverage never rises with the
// threshold, on both topology providers.

namespace qntn::sim {
namespace {

using core::QntnConfig;

constexpr double kThresholds[] = {0.3, 0.5, 0.7, 0.8};  // ascending

/// One threshold's day: per-step flags for every LAN pair (a < b), pairs
/// of a step stored together, and the coverage result.
struct Day {
  std::vector<std::uint8_t> pair_connected;
  CoverageResult coverage;
};

Day run_day(const QntnConfig& config, const NetworkModel& model) {
  const core::Topology topology = core::make_topology(config, model);
  CoverageOptions options;
  options.duration = config.day_duration;
  options.step = config.ephemeris_step;
  Day day;
  day.coverage = analyze_coverage(model, topology.provider(), options);
  const std::size_t lans = model.lan_count();
  for (std::size_t i = 0; i < day.coverage.step_connected.size(); ++i) {
    const std::vector<std::size_t> comp =
        topology.provider()
            .graph_at(static_cast<double>(i) * options.step)
            .components();
    for (std::size_t a = 0; a < lans; ++a) {
      for (std::size_t b = a + 1; b < lans; ++b) {
        day.pair_connected.push_back(comp[model.lan_nodes(a).front()] ==
                                             comp[model.lan_nodes(b).front()]
                                         ? 1
                                         : 0);
      }
    }
  }
  return day;
}

TEST(CoverageMetamorphic, RaisingEtaThresholdNeverRaisesCoverage) {
  bool strict_drop = false;
  for (const std::size_t n : {std::size_t{12}, std::size_t{36}}) {
    const NetworkModel model =
        core::build_space_ground_model(QntnConfig{}, n);
    for (const core::TopologyMode mode :
         {core::TopologyMode::Rebuild, core::TopologyMode::ContactPlan}) {
      std::vector<Day> days;
      for (const double threshold : kThresholds) {
        QntnConfig config;
        config.topology_mode = mode;
        config.transmissivity_threshold = threshold;
        days.push_back(run_day(config, model));
      }
      for (std::size_t hi = 1; hi < days.size(); ++hi) {
        for (std::size_t lo = 0; lo < hi; ++lo) {
          SCOPED_TRACE("n=" + std::to_string(n) + ", " +
                       (mode == core::TopologyMode::Rebuild ? "rebuild"
                                                            : "plan") +
                       ", threshold " + std::to_string(kThresholds[lo]) +
                       " < " + std::to_string(kThresholds[hi]));
          const Day& low = days[lo];
          const Day& high = days[hi];
          ASSERT_EQ(high.pair_connected.size(), low.pair_connected.size());
          std::size_t pair_violations = 0;
          for (std::size_t k = 0; k < high.pair_connected.size(); ++k) {
            if (high.pair_connected[k] > low.pair_connected[k]) {
              ++pair_violations;
            }
          }
          EXPECT_EQ(pair_violations, 0u);
          std::size_t step_violations = 0;
          for (std::size_t i = 0; i < high.coverage.step_connected.size();
               ++i) {
            if (high.coverage.step_connected[i] >
                low.coverage.step_connected[i]) {
              ++step_violations;
            }
          }
          EXPECT_EQ(step_violations, 0u);
          EXPECT_LE(high.coverage.percent, low.coverage.percent);
          strict_drop =
              strict_drop || high.coverage.percent < low.coverage.percent;
        }
      }
    }
  }
  // Guard: the thresholds bind somewhere, so the relation was exercised.
  EXPECT_TRUE(strict_drop);
}

}  // namespace
}  // namespace qntn::sim
