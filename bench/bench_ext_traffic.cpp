// Extension: dynamic traffic. The paper's instantaneous-serving model is
// replaced by the traffic serving mode — per-LAN Poisson arrivals, bounded
// per-node concurrency, queueing, light-time heralding and memory
// decoherence — sweeping the offered load on the air-ground network over
// two 30-s serving windows at a constant rate.

#include <cstdio>

#include "repro_common.hpp"

int main() {
  using namespace qntn;

  core::QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  config.day_duration = 60.0;
  config.request_steps = 2;
  config.traffic_diurnal_amplitude = 0.0;
  config.traffic_node_capacity = 4;
  config.traffic_service_overhead = 0.01;
  config.traffic_max_queue_delay = 0.25;
  config.em_memory_t1 = 1.0;  // the memory pairs decohere in while queued
  config.em_memory_t2 = 0.3;

  Table table("Extension — air-ground under Poisson load (capacity 4/node)");
  table.set_header({"arrivals/LAN [1/s]", "served [%]", "throughput [1/s]",
                    "latency p50/p99 [ms]", "wait p99 [ms]", "mean fidelity"});
  for (const double rate : {0.5, 5.0, 25.0, 50.0, 100.0, 150.0}) {
    core::RunContext ctx{config};
    ctx.config.traffic_arrival_rate = rate;
    const core::ArchitectureMetrics m = core::evaluate_air_ground(ctx);
    const double throughput =
        static_cast<double>(m.requests_served) / config.day_duration;
    table.add_row({Table::num(rate, 1), Table::num(m.served_percent, 2),
                   Table::num(throughput, 1),
                   Table::num(m.latency_p50 * 1e3, 2) + " / " +
                       Table::num(m.latency_p99 * 1e3, 2),
                   Table::num(m.waiting_p99 * 1e3, 2),
                   m.requests_served > 0 ? Table::num(m.mean_fidelity, 4)
                                         : "-"});
  }
  bench::emit(table, "ext_traffic.csv");

  std::printf(
      "\nthe single HAP relay saturates near capacity/service_time "
      "(~4/0.011 ~ 360 1/s\nacross the three LANs); beyond that, waiting "
      "time grows into the memory's T2 and\nthe *delivered* fidelity falls "
      "even though every optical link is unchanged — the\ncost of the "
      "paper's infinite-capacity assumption expressed in fidelity, not "
      "just\nin served percent.\n");
  return 0;
}
