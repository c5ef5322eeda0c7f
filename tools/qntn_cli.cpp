// qntn_cli — one entry point for the library's studies.
//
//   qntn_cli config                      print the default configuration
//   qntn_cli coverage N                  space-ground day at N satellites
//   qntn_cli air                         air-ground architecture
//   qntn_cli hybrid N                    hybrid architecture at N satellites
//   qntn_cli sweep                       Figs. 6-8 full sweep
//   qntn_cli em N                        entanglement-management serving at N
//   qntn_cli traffic N                   open-arrival traffic serving at N
//   qntn_cli contacts N                  compiled contact plan at N satellites
//   qntn_cli sessions N                  session admission at N satellites
//
// Common flags (tools/cli_common.hpp): --config FILE, --out PATH,
// --threads N, --seed N, --metrics-out FILE, --trace-out FILE,
// --trace-level off|snapshots|requests, --profile-out FILE. A trailing
// positional argument is still accepted as the config file (legacy
// spelling).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "core/experiments.hpp"
#include "plan/session_scheduler.hpp"

namespace {

using namespace qntn;

void print_metrics_block(const core::ArchitectureMetrics& m) {
  std::printf("  coverage  %.2f %%\n", m.coverage_percent);
  std::printf("  served    %.2f %% (%zu/%zu; %zu no-path, %zu isolated",
              m.served_percent, m.requests_served, m.requests_issued,
              m.requests_no_path, m.requests_isolated);
  if (m.requests_congested > 0) {
    std::printf(", %zu congested", m.requests_congested);
  }
  if (m.requests_rejected_capacity > 0) {
    std::printf(", %zu rejected", m.requests_rejected_capacity);
  }
  if (m.requests_dropped_deadline > 0) {
    std::printf(", %zu deadline", m.requests_dropped_deadline);
  }
  std::printf(")\n");
  std::printf("  fidelity  %.4f (mean path eta %.4f, %.2f hops)\n",
              m.mean_fidelity, m.mean_transmissivity, m.mean_hops);
  std::printf("  handovers %zu\n", m.handovers);
  if (m.em.enabled) {
    std::printf("  em        %zu swaps (depth %.2f mean), %zu purify rounds, "
                "%zu pairs\n",
                m.em.swaps, m.em.mean_swap_depth, m.em.purification_rounds,
                m.em.pairs_consumed);
    std::printf("  em        occupancy %.3f mean, %zu SLO-met, %zu spills\n",
                m.em.mean_memory_occupancy, m.em.slo_met,
                m.em.multipath_spills);
    std::printf("  latency   p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                m.latency_p50 * 1e3, m.latency_p95 * 1e3, m.latency_p99 * 1e3);
  }
  if (m.traffic.enabled) {
    std::printf("  traffic   peak util %.3f mean, queue depth %zu peak\n",
                m.traffic.mean_peak_utilisation, m.traffic.peak_queue_depth);
    std::printf("  latency   p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                m.latency_p50 * 1e3, m.latency_p95 * 1e3, m.latency_p99 * 1e3);
    std::printf("  queueing  p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                m.waiting_p50 * 1e3, m.waiting_p95 * 1e3, m.waiting_p99 * 1e3);
  }
}

int cmd_config() {
  std::fputs(core::serialize_config(core::QntnConfig{}).c_str(), stdout);
  return 0;
}

int cmd_coverage(std::size_t n, const core::RunContext& ctx) {
  const core::ArchitectureMetrics point = core::evaluate_space_ground(ctx, n);
  std::printf("space-ground @%zu satellites\n", n);
  print_metrics_block(point);
  return 0;
}

int cmd_air(const core::RunContext& ctx) {
  const core::ArchitectureMetrics air = core::evaluate_air_ground(ctx);
  std::printf("air-ground\n");
  print_metrics_block(air);
  return 0;
}

int cmd_hybrid(std::size_t n, core::RunContext ctx) {
  ctx.config.enable_hap_satellite = true;
  const core::ArchitectureMetrics point = core::evaluate_hybrid(ctx, n);
  std::printf("hybrid @%zu satellites\n", n);
  print_metrics_block(point);
  return 0;
}

int cmd_sweep(core::RunContext ctx, std::size_t threads) {
  ThreadPool pool(threads);
  ctx.pool = &pool;
  const auto sweep =
      core::space_ground_sweep(ctx, core::paper_constellation_sizes());
  std::printf("%-6s %-10s %-10s %-10s\n", "sats", "cover%", "served%",
              "fidelity");
  for (const core::ArchitectureMetrics& p : sweep) {
    std::printf("%-6zu %-10.2f %-10.2f %-10.4f\n", p.satellites,
                p.coverage_percent, p.served_percent, p.mean_fidelity);
  }
  return 0;
}

int cmd_em(std::size_t n, core::RunContext ctx) {
  // Entanglement-management serving over the space-ground architecture:
  // buffered memories, swap trees, purification, k-path load balancing.
  ctx.config.serving_mode = core::ServingMode::Entanglement;
  const core::ArchitectureMetrics point = core::evaluate_space_ground(ctx, n);
  std::printf("space-ground @%zu satellites (entanglement serving)\n", n);
  print_metrics_block(point);
  return 0;
}

int cmd_traffic(std::size_t n, core::RunContext ctx) {
  // Open-arrival traffic serving over the space-ground architecture:
  // per-LAN diurnal Poisson arrivals, capacity claims, queueing deadlines
  // and admission backpressure (DESIGN.md §12).
  ctx.config.serving_mode = core::ServingMode::Traffic;
  const core::ArchitectureMetrics point = core::evaluate_space_ground(ctx, n);
  std::printf("space-ground @%zu satellites (traffic serving)\n", n);
  print_metrics_block(point);
  return 0;
}

int cmd_contacts(std::size_t n, const core::QntnConfig& config) {
  const sim::NetworkModel model = core::build_space_ground_model(config, n);
  const plan::ContactPlan contact_plan = plan::compile_contact_plan(
      model, config.link_policy(), config.plan_options());
  const plan::ContactPlanStats stats = contact_plan.stats();
  std::printf("contact plan @%zu satellites over %.0f s\n", n,
              contact_plan.horizon());
  std::printf("  windows        %zu\n", stats.window_count);
  std::printf("  total contact  %.0f s (mean window %.1f s)\n",
              stats.total_contact, stats.mean_window_duration);
  std::printf("  static links   %zu\n", contact_plan.static_links().size());
  return 0;
}

int cmd_sessions(std::size_t n, const core::QntnConfig& config) {
  const sim::NetworkModel model = core::build_space_ground_model(config, n);
  const plan::ContactPlan contact_plan = plan::compile_contact_plan(
      model, config.link_policy(), config.plan_options());
  const plan::SessionScheduler scheduler(contact_plan, model);

  // One 3-minute session per LAN pair per hour, arrivals staggered. Single
  // satellites bridge a LAN pair for ~3.3 min at a time, so longer sessions
  // are blocked at every Table II size.
  std::vector<plan::SessionRequest> requests;
  for (std::size_t hour = 0; hour < 24; ++hour) {
    for (std::size_t a = 0; a < model.lan_count(); ++a) {
      for (std::size_t b = a + 1; b < model.lan_count(); ++b) {
        requests.push_back({a, b, 3600.0 * static_cast<double>(hour), 180.0});
      }
    }
  }
  const plan::SessionSchedule schedule = scheduler.schedule(requests);
  std::printf("sessions @%zu satellites: %zu requests\n", n, requests.size());
  std::printf("  admitted   %zu\n  blocked    %zu (%.1f %%)\n",
              schedule.sessions.size(), schedule.blocked.size(),
              100.0 * schedule.blocked_fraction(requests.size()));
  if (!schedule.sessions.empty()) {
    std::printf("  wait       %.1f s mean\n  handovers  %.2f mean\n",
                schedule.wait.mean(), schedule.handovers.mean());
  }
  return 0;
}

int usage() {
  std::fputs(
      "usage: qntn_cli <config | coverage N | air | hybrid N | sweep | em N | "
      "traffic N | contacts N | sessions N>\n"
      "  [--config FILE] [--threads N] [--seed N] [--metrics-out FILE]\n"
      "  [--trace-out FILE] [--trace-level off|snapshots|requests]\n"
      "  [--profile-out FILE]\n",
      stderr);
  return 2;
}

std::size_t positional_count(const tools::CommonOptions& opts,
                             std::size_t index) {
  return static_cast<std::size_t>(
      tools::parse_u64("count", opts.positional.at(index)));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::CommonOptions opts = tools::parse_common_flags(argc, argv);
    if (opts.positional.empty()) return usage();
    const std::string command = opts.positional.front();
    // Legacy spelling: a trailing positional argument is the config file.
    const std::size_t arity =
        (command == "air" || command == "sweep" || command == "config") ? 1 : 2;
    if (!opts.config_path.has_value() && opts.positional.size() > arity) {
      opts.config_path = opts.positional.back();
    }

    if (command == "config") return cmd_config();

    const tools::ObsBundle bundle = tools::make_obs(opts);
    const core::RunContext ctx =
        tools::make_run_context(opts, bundle, tools::load_config(opts));
    // Ambient for the commands below run_scenario's reach (contact-plan
    // compilation, session scheduling): their counters land in
    // --metrics-out and their spans in --profile-out too.
    const obs::ScopedRegistry ambient(bundle.registry.get());
    const obs::ScopedProfiler profiling(bundle.profiler.get());

    int rc = -1;
    if (command == "air") {
      rc = cmd_air(ctx);
    } else if (command == "sweep") {
      rc = cmd_sweep(ctx, opts.threads.value_or(0));
    } else if (command == "coverage" && opts.positional.size() >= 2) {
      rc = cmd_coverage(positional_count(opts, 1), ctx);
    } else if (command == "hybrid" && opts.positional.size() >= 2) {
      rc = cmd_hybrid(positional_count(opts, 1), ctx);
    } else if (command == "em" && opts.positional.size() >= 2) {
      rc = cmd_em(positional_count(opts, 1), ctx);
    } else if (command == "traffic" && opts.positional.size() >= 2) {
      rc = cmd_traffic(positional_count(opts, 1), ctx);
    } else if (command == "contacts" && opts.positional.size() >= 2) {
      rc = cmd_contacts(positional_count(opts, 1), ctx.config);
    } else if (command == "sessions" && opts.positional.size() >= 2) {
      rc = cmd_sessions(positional_count(opts, 1), ctx.config);
    }
    if (rc < 0) return usage();
    tools::write_metrics(opts, bundle);
    tools::write_profile(opts, bundle);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
