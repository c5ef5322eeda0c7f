#include "core/experiments.hpp"

#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "quantum/channels.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/state.hpp"

namespace qntn::core {

std::vector<FidelityPoint> fig5_fidelity_sweep(
    quantum::FidelityConvention convention, double step) {
  QNTN_REQUIRE(step > 0.0 && step <= 1.0, "step must be in (0, 1]");
  const obs::ScopedTimer timer("time.fidelity_sweep_s");
  const obs::Span span("core.fig5_sweep");
  std::vector<FidelityPoint> out;
  const auto count = static_cast<std::size_t>(std::round(1.0 / step));
  out.reserve(count + 1);
  const quantum::ColumnVector ideal =
      quantum::bell_state(quantum::BellState::PhiPlus);
  for (std::size_t i = 0; i <= count; ++i) {
    const double eta = std::min(1.0, static_cast<double>(i) * step);
    FidelityPoint point;
    point.transmissivity = eta;
    const quantum::Matrix rho = quantum::transmit_bell_half(eta);
    point.fidelity_simulated = quantum::fidelity_to_pure(rho, ideal, convention);
    point.fidelity_closed_form =
        quantum::bell_fidelity_after_damping(eta, convention);
    out.push_back(point);
  }
  obs::count("quantum.kraus_evals", count + 1);
  return out;
}

double transmissivity_threshold_for(const std::vector<FidelityPoint>& sweep,
                                    double target_fidelity) {
  for (const FidelityPoint& point : sweep) {
    if (point.fidelity_simulated >= target_fidelity) {
      return point.transmissivity;
    }
  }
  return 1.0;
}

std::vector<std::size_t> paper_constellation_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 6; n <= 108; n += 6) sizes.push_back(n);
  return sizes;
}

sim::ScenarioConfig RunContext::scenario_config() const {
  sim::ScenarioConfig sc = config.scenario_config();
  sc.registry = registry;
  sc.trace = trace;
  sc.profiler = profiler;
  sc.pool = config.parallel_snapshots ? pool : nullptr;
  if (seed.has_value()) sc.request_seed = *seed;
  return sc;
}

namespace {

/// p50/p95/p99 of `samples` from one sort; left as they are when there
/// are no samples.
void tail_percentiles(const std::vector<double>& samples, double& p50,
                      double& p95, double& p99) {
  if (samples.empty()) return;
  const std::vector<double> p = percentiles(samples, {0.50, 0.95, 0.99});
  p50 = p[0];
  p95 = p[1];
  p99 = p[2];
}

ArchitectureMetrics summarize(std::string architecture,
                              std::size_t n_satellites, ServingMode mode,
                              const sim::ScenarioResult& r) {
  ArchitectureMetrics m;
  m.architecture = std::move(architecture);
  m.satellites = n_satellites;
  m.coverage_percent = r.coverage.percent;
  m.served_percent = 100.0 * r.served_fraction;
  m.mean_fidelity = r.totals.fidelity.mean();
  m.mean_transmissivity = r.totals.transmissivity.mean();
  m.mean_hops = r.totals.hops.mean();
  m.requests_issued = r.totals.issued;
  m.requests_served = r.totals.served;
  m.requests_no_path = r.totals.no_path;
  m.requests_isolated = r.totals.isolated;
  m.requests_congested = r.totals.congested;
  m.requests_rejected_capacity = r.totals.rejected_capacity;
  m.requests_dropped_deadline = r.totals.dropped_deadline;
  m.handovers = r.handovers;
  if (mode == ServingMode::Entanglement) {
    m.em.enabled = true;
    m.em.swaps = r.em.swaps;
    m.em.purification_rounds = r.em.purification_rounds;
    m.em.pairs_consumed = r.em.pairs_consumed;
    m.em.slo_met = r.em.slo_met;
    m.em.multipath_spills = r.em.spilled;
    m.em.mean_memory_occupancy = r.em.memory_occupancy.mean();
    m.em.mean_swap_depth = r.em.swap_depth.mean();
    tail_percentiles(r.em.latency_samples, m.latency_p50, m.latency_p95,
                     m.latency_p99);
  }
  if (mode == ServingMode::Traffic) {
    m.traffic.enabled = true;
    m.traffic.mean_peak_utilisation = r.traffic.peak_utilisation.mean();
    m.traffic.peak_queue_depth = r.traffic.peak_queue_depth;
    tail_percentiles(r.traffic.latency_samples, m.latency_p50,
                     m.latency_p95, m.latency_p99);
    tail_percentiles(r.traffic.waiting_samples, m.waiting_p50, m.waiting_p95,
                     m.waiting_p99);
  }
  return m;
}

/// Shared body of the three evaluate_* runners: install the context's
/// registry and profiler as ambient (so model building and topology
/// compilation report into them too, not just run_scenario), build, run,
/// summarize. `span_name` is a static string naming the evaluation's
/// top-level profiler span.
template <typename BuildModel>
ArchitectureMetrics evaluate_architecture(const RunContext& ctx,
                                          std::string architecture,
                                          const char* span_name,
                                          std::size_t n_satellites,
                                          BuildModel&& build_model) {
  const obs::ScopedRegistry ambient(ctx.registry);
  const obs::ScopedProfiler profiling(ctx.profiler);
  const obs::Span span(span_name, n_satellites);
  // The build and the contact-plan compile fan out on the same pool the
  // snapshot engine uses, under the same gate, so a "no parallelism"
  // config stays serial end to end. Both fan-outs are deterministic; the
  // built model and topology are identical for any thread count.
  ThreadPool* const build_pool =
      ctx.config.parallel_snapshots ? ctx.pool : nullptr;
  sim::NetworkModel model;
  Topology topology;
  {
    const obs::ScopedTimer timer("time.build_model_s");
    const obs::Span build_span("core.build_model", n_satellites);
    model = build_model(ctx.config, build_pool);
    topology = make_topology(ctx.config, model, build_pool);
  }
  const sim::ScenarioResult result =
      sim::run_scenario(model, topology.provider(), ctx.scenario_config());
  return summarize(std::move(architecture), n_satellites,
                   ctx.config.serving_mode, result);
}

}  // namespace

ArchitectureMetrics evaluate_space_ground(const RunContext& ctx,
                                          std::size_t n_satellites) {
  return evaluate_architecture(
      ctx, "space-ground", "core.evaluate.space_ground", n_satellites,
      [&](const QntnConfig& config, ThreadPool* pool) {
        return build_space_ground_model(config, n_satellites, pool);
      });
}

ArchitectureMetrics evaluate_space_ground(const QntnConfig& config,
                                          std::size_t n_satellites) {
  return evaluate_space_ground(RunContext{config}, n_satellites);
}

std::vector<ArchitectureMetrics> space_ground_sweep(
    const RunContext& ctx, const std::vector<std::size_t>& sizes) {
  RunContext point_ctx = ctx;
  // Concurrent evaluations would interleave their JSONL streams; only a
  // single-size "sweep" keeps the trace.
  if (sizes.size() > 1) point_ctx.trace = nullptr;
  const obs::ScopedProfiler profiling(ctx.profiler);
  const obs::Span span("core.sweep", sizes.size());
  std::vector<ArchitectureMetrics> out(sizes.size());
  if (ctx.pool == nullptr || sizes.size() <= 1) {
    // Sizes run serially on this thread; each evaluation keeps ctx.pool so
    // run_scenario's snapshot engine can use it.
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      out[i] = evaluate_space_ground(point_ctx, sizes[i]);
    }
    return out;
  }
  // Fan out across sizes instead: the inner evaluations run on pool workers
  // and must not re-enter the pool (a nested blocking fan-out from a worker
  // can deadlock), so they get no pool of their own.
  point_ctx.pool = nullptr;
  parallel_for_index(*ctx.pool, sizes.size(), [&](std::size_t i) {
    out[i] = evaluate_space_ground(point_ctx, sizes[i]);
  });
  return out;
}

std::vector<ArchitectureMetrics> space_ground_sweep(
    const QntnConfig& config, const std::vector<std::size_t>& sizes,
    ThreadPool& pool) {
  RunContext ctx{config};
  ctx.pool = &pool;
  return space_ground_sweep(ctx, sizes);
}

ArchitectureMetrics evaluate_air_ground(const RunContext& ctx) {
  return evaluate_architecture(ctx, "air-ground", "core.evaluate.air_ground",
                               0, [](const QntnConfig& config, ThreadPool*) {
                                 return build_air_ground_model(config);
                               });
}

ArchitectureMetrics evaluate_air_ground(const QntnConfig& config) {
  return evaluate_air_ground(RunContext{config});
}

ArchitectureMetrics evaluate_hybrid(const RunContext& ctx,
                                    std::size_t n_satellites) {
  return evaluate_architecture(
      ctx, "hybrid", "core.evaluate.hybrid", n_satellites,
      [&](const QntnConfig& config, ThreadPool* pool) {
        return build_hybrid_model(config, n_satellites, pool);
      });
}

ArchitectureMetrics evaluate_hybrid(const QntnConfig& config,
                                    std::size_t n_satellites) {
  return evaluate_hybrid(RunContext{config}, n_satellites);
}

std::vector<ArchitectureMetrics> table3_comparison(
    const RunContext& ctx, std::size_t space_ground_satellites) {
  return {evaluate_space_ground(ctx, space_ground_satellites),
          evaluate_air_ground(ctx)};
}

std::vector<ArchitectureMetrics> table3_comparison(
    const QntnConfig& config, std::size_t space_ground_satellites) {
  return table3_comparison(RunContext{config}, space_ground_satellites);
}

}  // namespace qntn::core
