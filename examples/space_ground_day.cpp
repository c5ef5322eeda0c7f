// Space-ground architecture over one day (paper Section IV-B).
//
// Builds the three Table I LANs plus the Table II constellation (size given
// on the command line, default 108), sweeps a full day at 30 s resolution,
// and prints the connectivity episodes, the Eq. (6)/(7) coverage figures and
// the request-serving statistics.
//
// Usage: space_ground_day [n_satellites]

#include <cstdio>
#include <cstdlib>

#include "common/units.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace qntn;

  std::size_t n_satellites = 108;
  if (argc > 1) n_satellites = static_cast<std::size_t>(std::atoi(argv[1]));

  const core::QntnConfig config;
  std::printf("QNTN space-ground architecture, %zu satellites @ %.0f km\n",
              n_satellites, m_to_km(config.satellite_altitude));

  const sim::NetworkModel model =
      core::build_space_ground_model(config, n_satellites);
  const sim::TopologyBuilder topology(model, config.link_policy());
  const sim::ScenarioResult result =
      sim::run_scenario(model, topology, config.scenario_config());

  std::printf("\nconnectivity episodes (all three LANs interconnected):\n");
  std::size_t shown = 0;
  for (const Interval& episode : result.coverage.intervals.merged()) {
    std::printf("  %7.1f min -> %7.1f min  (%5.1f min)\n",
                s_to_minutes(episode.start), s_to_minutes(episode.end),
                s_to_minutes(episode.length()));
    if (++shown == 12 && result.coverage.intervals.episode_count() > 12) {
      std::printf("  ... and %zu more\n",
                  result.coverage.intervals.episode_count() - shown);
      break;
    }
  }

  std::printf("\ncoverage period T_c = %.1f min of %.0f (Eq. 6)\n",
              s_to_minutes(result.coverage.covered_s), 1440.0);
  std::printf("coverage percentage P = %.2f%% (Eq. 7; paper: 55.17%% @108)\n",
              result.coverage.percent);
  std::printf("served requests       = %.2f%% (paper: 57.75%% @108)\n",
              100.0 * result.served_fraction);
  if (result.totals.fidelity.count() > 0) {
    std::printf("entanglement fidelity = %.4f mean (min %.4f / max %.4f; "
                "paper: 0.96)\n",
                result.totals.fidelity.mean(), result.totals.fidelity.min(),
                result.totals.fidelity.max());
    std::printf("path length           = %.2f hops mean\n", result.totals.hops.mean());
  }
  return 0;
}
