#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/config_io.hpp"
#include "core/scenario_factory.hpp"
#include "net/routing.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"

namespace qntn::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Paper headline operating points (Section IV / Table III), copied from
// bench/repro_common.hpp so this project builds without bench/.
constexpr double kPaperCoverage108 = 55.17;  // %
constexpr double kPaperServed108 = 57.75;    // %
constexpr double kPaperFidelitySpace = 0.96;
constexpr double kPaperFidelityAir = 0.98;
constexpr double kPercentTolerance = 1.5;    // percentage points
constexpr double kFidelityTolerance = 0.025;

constexpr std::size_t kDaySatellites = 108;
constexpr std::size_t kSmokeSatellites = 12;
constexpr std::string_view kSmokeOverrides =
    "request_steps = 96\n"
    "traffic_arrival_rate = 0.2\n";

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// One architecture evaluation of a workload, with the pool the library
/// hands to its build, topology and run_scenario calls.
struct Arch {
  bool air = false;
  std::size_t satellites = 0;
  ThreadPool* pool = nullptr;
};

std::vector<Arch> architectures(const Spec& spec, ThreadPool& pool) {
  // The evaluate_* runners hand the context pool on only when
  // parallel_snapshots is set.
  ThreadPool* const shared = spec.config.parallel_snapshots ? &pool : nullptr;
  if (!spec.workload->paper) return {{false, spec.satellites, shared}};
  return {{false, spec.satellites, shared}, {true, 0, shared}};
}

sim::NetworkModel build_model(const Spec& spec, const Arch& arch) {
  return arch.air ? core::build_air_ground_model(spec.config)
                  : core::build_space_ground_model(spec.config,
                                                   arch.satellites, arch.pool);
}

bool is_fixed_batch(const Spec& spec) {
  return spec.config.serving_mode != core::ServingMode::Traffic;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // The traffic pair runs at a quarter of the library's arrival rate (~260k
  // arrivals a day) so each evaluation is short enough to repeat within one
  // measurement. traffic_congested offers a little more load per node than
  // the library default (rate x service time = 1/s x 250 ms against
  // 4/s x 50 ms) at capacity 1; at 200 ms its peak RSS flipped between two
  // values 4 % apart from seed to seed. traffic_day routes by hop count, the eta-independent metric for which
  // the run-scoped epoch tree cache and delta tree repair are active;
  // traffic_congested routes by the default inverse eta, without them.
  static const std::vector<Workload> kWorkloads = {
      {"paper_repro",
       "Fig. 5 and Table III at library defaults: per-step link rebuild in "
       "coverage dominates, so topology and coverage wins show here and "
       "serving wins do not.",
       "# Library defaults: rebuild topology, single-shot serving,\n"
       "# 100 requests x 100 snapshots.\n",
       true},
      {"traffic_day",
       "About 260k diurnal Poisson arrivals at capacity 8 on the contact "
       "plan, hop-count routes: the shared epoch tree cache and delta tree "
       "repair do most of the work.",
       "serving_mode = traffic\n"
       "request_steps = 2880\n"
       "topology_mode = contact_plan\n"
       "traffic_arrival_rate = 1\n"
       "metric = hop_count\n",
       false},
      {"traffic_congested",
       "traffic_day's arrivals at capacity 1 and 250 ms service, inverse-eta "
       "routes: deadline drops and saturation reroutes outside any tree cache, "
       "so reroute and queue wins show here.",
       "serving_mode = traffic\n"
       "request_steps = 2880\n"
       "topology_mode = contact_plan\n"
       "traffic_arrival_rate = 1\n"
       "traffic_node_capacity = 1\n"
       "traffic_service_overhead_s = 0.25\n",
       false},
      {"em_day",
       "300 requests x 2880 snapshots from 64-slot memories purified to a 0.9 "
       "SLO: the only workload that runs src/em (pools, swap trees, "
       "purification, em route cache).",
       "serving_mode = entanglement\n"
       "request_count = 300\n"
       "request_steps = 2880\n"
       "em_memory_slots = 64\n"
       "em_memory_t1_s = 0.1\n"
       "em_memory_t2_s = 0.1\n"
       "em_fidelity_slo = 0.9\n"
       "topology_mode = contact_plan\n",
       false},
  };
  return kWorkloads;
}

const Workload& find_workload(std::string_view name) {
  std::string known;
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return workload;
    known += (known.empty() ? "" : ", ") + std::string(workload.name);
  }
  throw Error("unknown workload '" + std::string(name) + "' (known: " + known +
              ")");
}

Spec make_spec(const Workload& workload, std::optional<std::uint64_t> seed,
               bool smoke) {
  Spec spec;
  spec.workload = &workload;
  spec.smoke = smoke;
  std::string text(workload.config);
  if (smoke) text += kSmokeOverrides;
  spec.config = core::parse_config(text);
  if (seed.has_value()) {
    spec.config.request_seed = *seed;
    spec.config.traffic_seed = *seed;
  }
  spec.satellites = smoke ? kSmokeSatellites : kDaySatellites;
  return spec;
}

std::string config_digest(const Spec& spec) {
  return hex(fnv1a(core::serialize_config(spec.config) +
                   std::to_string(spec.satellites)));
}

double time_setup(const Spec& spec, ThreadPool& pool) {
  // A rebuild-topology set-up takes a few tens of ms, so it is repeated
  // until kSetupBudgetS is spent; a contact-plan set-up is timed once.
  constexpr double kSetupBudgetS = 0.5;
  std::vector<double> samples;
  double spent = 0.0;
  while (spent < kSetupBudgetS) {
    double total = 0.0;
    for (const Arch& arch : architectures(spec, pool)) {
      const Clock::time_point start = Clock::now();
      const sim::NetworkModel model = build_model(spec, arch);
      const core::Topology topology =
          core::make_topology(spec.config, model, arch.pool);
      total += seconds_since(start);
    }
    samples.push_back(total);
    spent += total;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

Outputs run_workload(const Spec& spec, ThreadPool& pool) {
  core::RunContext ctx{spec.config};
  ctx.pool = &pool;
  Outputs out;
  if (spec.workload->paper) {
    out.fig5 = core::fig5_fidelity_sweep(spec.config.convention);
    out.rows = core::table3_comparison(ctx, spec.satellites);
  } else {
    out.rows.push_back(core::evaluate_space_ground(ctx, spec.satellites));
  }
  return out;
}

std::vector<std::string> check_outputs(const Spec& spec, const Outputs& out) {
  std::vector<std::string> errors;
  for (const core::ArchitectureMetrics& m : out.rows) {
    const std::string where =
        m.architecture + "@" + std::to_string(m.satellites) + ": ";
    const std::size_t buckets = m.requests_served + m.requests_no_path +
                                m.requests_isolated + m.requests_congested +
                                m.requests_rejected_capacity +
                                m.requests_dropped_deadline;
    if (buckets != m.requests_issued) {
      errors.push_back(where + "six-bucket identity broken (" +
                       std::to_string(buckets) + " != issued " +
                       std::to_string(m.requests_issued) + ")");
    }
    if (m.requests_served > 0 &&
        !(m.mean_fidelity >= 0.5 && m.mean_fidelity <= 1.0)) {
      errors.push_back(where + "mean fidelity " +
                       std::to_string(m.mean_fidelity) +
                       " outside [0.5, 1]");
    }
    const std::size_t batch =
        spec.config.request_count * spec.config.request_steps;
    if (is_fixed_batch(spec) && m.requests_issued != batch) {
      errors.push_back(where + "issued " + std::to_string(m.requests_issued) +
                       " != request_count x request_steps " +
                       std::to_string(batch));
    }
    if (m.requests_issued == 0) errors.push_back(where + "no requests issued");
  }
  if (spec.workload->paper && !spec.smoke) {
    const auto off = [&](const char* what, double got, double paper,
                         double tolerance) {
      if (std::fabs(got - paper) > tolerance) {
        errors.push_back(std::string(what) + " " + std::to_string(got) +
                         " misses the paper's " + std::to_string(paper) +
                         " by more than " + std::to_string(tolerance));
      }
    };
    for (const core::ArchitectureMetrics& m : out.rows) {
      if (m.architecture == "space-ground" && m.satellites == kDaySatellites) {
        off("coverage@108 [%]", m.coverage_percent, kPaperCoverage108,
            kPercentTolerance);
        off("served@108 [%]", m.served_percent, kPaperServed108,
            kPercentTolerance);
        off("space-ground fidelity", m.mean_fidelity, kPaperFidelitySpace,
            kFidelityTolerance);
      } else if (m.architecture == "air-ground") {
        off("air-ground coverage [%]", m.coverage_percent, 100.0, 0.0);
        off("air-ground fidelity", m.mean_fidelity, kPaperFidelityAir,
            kFidelityTolerance);
      }
    }
  }
  if (spec.workload->paper && out.fig5.empty()) {
    errors.push_back("Fig. 5 sweep returned no points");
  }
  return errors;
}

std::string output_digest(const Outputs& out) {
  std::string text;
  const auto add = [&text](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.10g,", value);
    text += buffer;
  };
  const auto count = [&add](std::size_t value) {
    add(static_cast<double>(value));
  };
  for (const core::ArchitectureMetrics& m : out.rows) {
    text += m.architecture + ',';
    count(m.satellites);
    add(m.coverage_percent);
    add(m.served_percent);
    add(m.mean_fidelity);
    add(m.mean_transmissivity);
    add(m.mean_hops);
    count(m.requests_issued);
    count(m.requests_served);
    count(m.requests_no_path);
    count(m.requests_isolated);
    count(m.requests_congested);
    count(m.requests_rejected_capacity);
    count(m.requests_dropped_deadline);
    count(m.handovers);
    add(m.latency_p50);
    add(m.latency_p95);
    add(m.latency_p99);
    add(m.waiting_p50);
    add(m.waiting_p95);
    add(m.waiting_p99);
    count(m.em.enabled ? 1 : 0);
    count(m.em.swaps);
    count(m.em.purification_rounds);
    count(m.em.pairs_consumed);
    count(m.em.slo_met);
    count(m.em.multipath_spills);
    add(m.em.mean_memory_occupancy);
    add(m.em.mean_swap_depth);
    count(m.traffic.enabled ? 1 : 0);
    add(m.traffic.mean_peak_utilisation);
    count(m.traffic.peak_queue_depth);
    text += '\n';
  }
  for (const core::FidelityPoint& point : out.fig5) {
    add(point.transmissivity);
    add(point.fidelity_simulated);
    add(point.fidelity_closed_form);
  }
  return hex(fnv1a(text));
}

std::uint64_t requests_issued(const Outputs& out) {
  std::uint64_t total = 0;
  for (const core::ArchitectureMetrics& m : out.rows) total += m.requests_issued;
  return total;
}

std::map<std::string, double> traced_run(const Spec& spec, ThreadPool& pool,
                                         double untraced_wall_s) {
  obs::Registry registry;
  double fig5_s = 0.0;
  double build_s = 0.0;
  double topology_s = 0.0;
  double scenario_s = 0.0;
  double peak_queue = 0.0;
  double waiting_p99 = 0.0;

  if (spec.workload->paper) {
    const obs::ScopedRegistry ambient(&registry);
    const Clock::time_point start = Clock::now();
    (void)core::fig5_fidelity_sweep(spec.config.convention);
    fig5_s = seconds_since(start);
  }

  // The space-ground model and its topology stay alive for the per-call
  // probes after the loop (topology declared last: destroyed first, it
  // borrows the model).
  std::unique_ptr<sim::NetworkModel> probe_model;
  core::Topology probe_topology;
  sim::ScenarioConfig probe_config;

  for (const Arch& arch : architectures(spec, pool)) {
    core::RunContext ctx{spec.config};
    ctx.pool = arch.pool;
    ctx.registry = &registry;
    const sim::ScenarioConfig scenario = ctx.scenario_config();
    auto model = std::make_unique<sim::NetworkModel>();
    core::Topology topology;
    {
      const obs::ScopedRegistry ambient(&registry);
      Clock::time_point start = Clock::now();
      *model = build_model(spec, arch);
      build_s += seconds_since(start);
      start = Clock::now();
      topology = core::make_topology(spec.config, *model, arch.pool);
      topology_s += seconds_since(start);
    }
    const Clock::time_point start = Clock::now();
    const sim::ScenarioResult result =
        sim::run_scenario(*model, topology.provider(), scenario);
    scenario_s += seconds_since(start);

    peak_queue = std::max(
        peak_queue, static_cast<double>(result.traffic.peak_queue_depth));
    if (!result.traffic.waiting_samples.empty()) {
      waiting_p99 = std::max(
          waiting_p99, percentile(result.traffic.waiting_samples, 0.99));
    }
    if (!arch.air) {
      probe_topology = std::move(topology);
      probe_model = std::move(model);
      probe_config = scenario;
    }
  }

  // sim.topology_query_us: graph_at over the coverage grid.
  const sim::TopologyProvider& provider = probe_topology.provider();
  const auto grid_steps = static_cast<std::size_t>(
      std::ceil(probe_config.coverage.duration / probe_config.coverage.step));
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < grid_steps; ++i) {
    (void)provider.graph_at(static_cast<double>(i) * probe_config.coverage.step);
  }
  const double query_us =
      1e6 * seconds_since(start) / static_cast<double>(grid_steps);

  // net.bf_tree_us: one tree per LAN on every request-snapshot graph.
  double tree_s = 0.0;
  std::size_t trees = 0;
  for (std::size_t step = 0; step < probe_config.request_steps; ++step) {
    const net::Graph graph = provider.graph_at(
        static_cast<double>(step) * probe_config.request_step_interval);
    for (std::size_t lan = 0; lan < probe_model->lan_count(); ++lan) {
      const net::NodeId source = probe_model->lan_nodes(lan).front();
      start = Clock::now();
      (void)net::bellman_ford_tree(graph, source, spec.config.metric);
      tree_s += seconds_since(start);
      ++trees;
    }
  }

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto counter = [&snapshot](const char* name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  // run_scenario times its own two phases into the registry, one sample
  // per call.
  const auto total_s = [&snapshot](const char* name) {
    const auto it = snapshot.stats.find(name);
    return it == snapshot.stats.end()
               ? 0.0
               : it->second.mean() * static_cast<double>(it->second.count());
  };
  const double coverage_s = total_s("time.coverage_s");
  const double serving_s = total_s("time.serving_s");
  const double issued = counter("scenario.requests_issued");
  const double traced_total = fig5_s + build_s + topology_s + scenario_s;
  return {
      {"orbit.build_model_s", build_s},
      {"plan.make_topology_s", topology_s},
      {"plan.graph_queries", counter("plan.graph_queries")},
      {"plan.epoch_builds", counter("plan.epoch_builds")},
      {"plan.epoch_hit_ratio",
       ratio(counter("plan.epoch_hits"), counter("plan.graph_queries"))},
      {"sim.coverage_s", coverage_s},
      {"sim.topology_query_us", query_us},
      {"sim.rebuild_queries", counter("sim.rebuild_queries")},
      {"sim.run_scenario_s", scenario_s},
      {"sim.serving_s", serving_s},
      {"sim.serve_us_per_request", 1e6 * ratio(serving_s, issued)},
      {"sim.epoch_cache_builds", counter("sim.epoch_cache_builds")},
      {"sim.epoch_cache_hit_ratio",
       ratio(counter("sim.epoch_cache_hits"),
             counter("sim.epoch_cache_hits") +
                 counter("sim.epoch_cache_builds"))},
      {"net.bf_trees", counter("net.bf_trees")},
      {"net.bf_rounds", counter("net.bf_rounds")},
      {"net.dijkstra_calls", counter("net.dijkstra_calls")},
      {"net.tree_delta_repairs", counter("net.tree_delta_repairs")},
      {"net.bf_tree_us", 1e6 * ratio(tree_s, static_cast<double>(trees))},
      {"em.route_cache_hits", counter("em.route_cache_hits")},
      {"em.shared_route_builds", counter("em.shared_route_builds")},
      {"em.swaps", counter("em.swaps")},
      {"em.purification_rounds", counter("em.purification_rounds")},
      {"em.pairs_consumed", counter("em.pairs_consumed")},
      {"quantum.fig5_sweep_s", fig5_s},
      {"scenario.requests_issued", issued},
      {"scenario.served_ratio",
       ratio(counter("scenario.requests_served"), issued)},
      {"scenario.requests_dropped_deadline",
       counter("scenario.requests_dropped_deadline")},
      {"scenario.requests_congested", counter("scenario.requests_congested")},
      {"traffic.peak_queue_depth", peak_queue},
      {"traffic.waiting_p99_s", waiting_p99},
      {"obs.overhead_pct",
       100.0 * ratio(traced_total - untraced_wall_s, untraced_wall_s)},
  };
}

}  // namespace qntn::benchmark
