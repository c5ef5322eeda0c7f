// Performance of the simulator's per-time-step work: topology snapshot
// construction and one coverage-analysis step, at the paper's constellation
// sizes. A full Fig. 6 day is 2880 such steps.

#include <cstdio>

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "perf_harness.hpp"
#include "sim/coverage.hpp"

int main(int argc, char** argv) {
  using namespace qntn;
  try {
    bench::PerfHarness harness("topology", argc, argv);
    const core::QntnConfig config;
    const std::uint64_t steps = harness.smoke() ? 30 : 300;

    for (const std::size_t sats : {std::size_t{6}, std::size_t{36},
                                   std::size_t{108}}) {
      const sim::NetworkModel model =
          core::build_space_ground_model(config, sats);
      const sim::TopologyBuilder topology(model, config.link_policy());
      harness.run_case("topology_snapshot_n" + std::to_string(sats), steps,
                       [&] {
                         double t = 0.0;
                         for (std::uint64_t i = 0; i < steps; ++i) {
                           bench::do_not_optimize(topology.graph_at(t));
                           t += 30.0;
                         }
                       });
      if (sats >= 36) {
        // What coverage runs per step: the provider's connectivity query.
        harness.run_case("coverage_step_n" + std::to_string(sats), steps, [&] {
          double t = 0.0;
          for (std::uint64_t i = 0; i < steps; ++i) {
            bench::do_not_optimize(topology.lans_connected_at(model, t));
            t += 30.0;
          }
        });
      }
    }

    {
      const sim::NetworkModel model = core::build_air_ground_model(config);
      const sim::TopologyBuilder topology(model, config.link_policy());
      const std::uint64_t iters = harness.smoke() ? 2'000 : 20'000;
      harness.run_case("air_ground_snapshot", iters, [&] {
        for (std::uint64_t i = 0; i < iters; ++i) {
          bench::do_not_optimize(topology.graph_at(0.0));
        }
      });
    }

    for (const std::size_t sats : {std::size_t{6}, std::size_t{36}}) {
      // Includes generating a full-day 30 s ephemeris per satellite.
      const std::uint64_t builds = harness.smoke() ? 1 : 3;
      harness.run_case("model_construction_n" + std::to_string(sats), builds,
                       [&] {
                         for (std::uint64_t i = 0; i < builds; ++i) {
                           bench::do_not_optimize(
                               core::build_space_ground_model(config, sats));
                         }
                       });
    }

    return harness.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
