// Extension: capacity-limited serving (relaxing the paper's "infinite
// queue capacity / every node serves all requests" assumption, Section
// III-D) on the traffic serving mode. Each of the day's 25 snapshots is a
// 3456-s serving window into which the three LAN populations send about
// 100 requests (the paper's batch size). A served pair holds one unit of
// traffic_node_capacity on every node of its route for the rest of the
// window, so the capacity is the number of pairs a node can take part in
// per snapshot. Sweeps that capacity for both architectures: the single
// HAP is a serving bottleneck the infinite-capacity model hides.

#include <cstdio>
#include <string>

#include "repro_common.hpp"

int main() {
  using namespace qntn;

  core::QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  config.request_steps = 25;
  const double window =
      config.day_duration / static_cast<double>(config.request_steps);
  // ~100 arrivals per window across the three LANs, at a constant rate.
  config.traffic_arrival_rate = 100.0 / (3.0 * window);
  config.traffic_diurnal_amplitude = 0.0;
  // Claims outlast the window: nothing completes, queued requests expire.
  config.traffic_service_overhead = window;

  ThreadPool pool;
  Table table("Extension — served % vs per-node capacity (~100 requests per "
              "snapshot, traffic mode)");
  table.set_header({"capacity", "air-ground served [%]",
                    "space-ground served [%]"});
  for (const std::size_t capacity : {5u, 10u, 20u, 40u, 60u, 80u, 100u}) {
    core::RunContext ctx{config};
    ctx.pool = &pool;
    ctx.config.traffic_node_capacity = capacity;
    const core::ArchitectureMetrics air = core::evaluate_air_ground(ctx);
    const core::ArchitectureMetrics space =
        core::evaluate_space_ground(ctx, 108);
    table.add_row({std::to_string(capacity), Table::num(air.served_percent, 2),
                   Table::num(space.served_percent, 2)});
  }
  bench::emit(table, "ext_capacity.csv");

  std::printf(
      "\nboth architectures funnel through a tiny relay set — the HAP, or "
      "the one-or-two\nsatellites currently above threshold — so served "
      "%% grows linearly with capacity\nuntil the ~100 requests of a "
      "window fit, and the space-ground curve is capped by\nits ~56%% "
      "availability. The paper's infinite-capacity assumption inflates "
      "absolute\nservice for both architectures but does not change their "
      "ordering.\n");
  return 0;
}
