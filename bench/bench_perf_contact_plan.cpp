// Contact-plan control plane vs per-step rebuild on the Fig. 6 workload:
// one simulated day of coverage analysis (the provider's LAN connectivity
// query every 30 s, as analyze_coverage runs it) at representative paper
// constellation sizes. The contact-plan case
// includes its one-off compile, so the speedup is end to end, not amortised
// away. Exits non-zero when the two providers disagree on connected steps.

#include <cstdio>
#include <vector>

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "perf_harness.hpp"
#include "plan/contact_topology.hpp"
#include "sim/coverage.hpp"

namespace {

using namespace qntn;

/// One Fig. 6 day: count the steps at which the provider connects the LANs.
std::size_t coverage_day(const sim::NetworkModel& model,
                         const sim::TopologyProvider& topology, double duration,
                         double step) {
  std::size_t connected = 0;
  for (double t = 0.0; t < duration; t += step) {
    if (topology.lans_connected_at(model, t)) ++connected;
  }
  return connected;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bench::PerfHarness harness("contact_plan", argc, argv);
    const core::QntnConfig config;
    const double duration = config.day_duration;
    const double step = config.ephemeris_step;
    const std::size_t day_steps = static_cast<std::size_t>(duration / step);

    const std::vector<std::size_t> sizes =
        harness.smoke() ? std::vector<std::size_t>{6, 36}
                        : std::vector<std::size_t>{6, 54, 108};

    bool match = true;
    for (const std::size_t n : sizes) {
      const sim::NetworkModel model = core::build_space_ground_model(config, n);
      const sim::LinkPolicy policy = config.link_policy();

      std::size_t rebuild_connected = 0;
      const double rebuild_ms = harness.run_case(
          "rebuild_day_n" + std::to_string(n), day_steps, [&] {
            const sim::TopologyBuilder rebuild(model, policy);
            rebuild_connected = coverage_day(model, rebuild, duration, step);
          });

      std::size_t plan_connected = 0;
      const double plan_ms = harness.run_case(
          "plan_day_n" + std::to_string(n), day_steps, [&] {
            const plan::ContactPlan contact_plan =
                plan::compile_contact_plan(model, policy,
                                           config.plan_options());
            const plan::ContactPlanTopology topology(contact_plan, model);
            plan_connected = coverage_day(model, topology, duration, step);
          });

      std::printf("n=%zu: speedup %.2fx, connected steps %zu vs %zu (%s)\n", n,
                  plan_ms > 0.0 ? rebuild_ms / plan_ms : 0.0,
                  rebuild_connected, plan_connected,
                  rebuild_connected == plan_connected ? "match" : "MISMATCH");
      if (rebuild_connected != plan_connected) match = false;
    }

    const int rc = harness.finish();
    if (!match) {
      std::fprintf(stderr,
                   "error: contact-plan day disagrees with per-step rebuild\n");
      return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
