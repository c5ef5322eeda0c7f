#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"

namespace qntn::obs {
class Profiler;
class Registry;
class TraceSink;
}  // namespace qntn::obs

/// \file experiments.hpp
/// The paper's experiments as reusable runners. Each bench binary wraps one
/// of these and prints the paper-vs-measured rows; the integration tests
/// assert their invariants on reduced workloads.
///
/// Every architecture evaluation returns one ArchitectureMetrics and takes a
/// RunContext bundling the configuration with the optional execution
/// machinery (thread pool, observability hooks, seed override). Plain
/// QntnConfig overloads remain for callers that need none of it.

namespace qntn::core {

/// --- Fig. 5: fidelity vs transmissivity. ---
struct FidelityPoint {
  double transmissivity = 0.0;
  /// Fidelity from the full density-matrix pipeline (Kraus application +
  /// fidelity to the ideal Bell state), the paper's measurement.
  double fidelity_simulated = 0.0;
  /// Closed-form prediction (1 + sqrt(eta))/2 (or its square), cross-check.
  double fidelity_closed_form = 0.0;
};

/// Sweep eta over [0, 1] with the given step (paper: 0.01).
[[nodiscard]] std::vector<FidelityPoint> fig5_fidelity_sweep(
    quantum::FidelityConvention convention, double step = 0.01);

/// Smallest eta on the sweep whose fidelity meets `target` (the paper reads
/// 0.7 for >90% under its convention).
[[nodiscard]] double transmissivity_threshold_for(
    const std::vector<FidelityPoint>& sweep, double target_fidelity);

/// --- Unified per-architecture result. ---
/// One evaluation of one architecture: the Fig. 6-8 observables plus the
/// request accounting run_scenario collects. Subsumes the former
/// SweepPoint / AirGroundResult / ComparisonRow trio.
struct ArchitectureMetrics {
  /// "space-ground", "air-ground" or "hybrid".
  std::string architecture;
  /// Constellation size (0 for the satellite-free air-ground architecture).
  std::size_t satellites = 0;
  double coverage_percent = 0.0;   ///< Fig. 6
  double served_percent = 0.0;     ///< Fig. 7
  double mean_fidelity = 0.0;      ///< Fig. 8 (over served requests)
  double mean_transmissivity = 0.0;
  double mean_hops = 0.0;
  /// Request accounting across all snapshots (the ServeOutcome identity:
  /// issued = served + no_path + isolated + congested + rejected_capacity +
  /// dropped_deadline; served/issued == served_percent/100).
  std::size_t requests_issued = 0;
  std::size_t requests_served = 0;
  std::size_t requests_no_path = 0;
  std::size_t requests_isolated = 0;
  /// Routes existed but relays/buffers could not pay (em serving mode only).
  std::size_t requests_congested = 0;
  /// Backpressure refusals at admission (traffic serving mode only).
  std::size_t requests_rejected_capacity = 0;
  /// Queueing-deadline drops (traffic serving mode only).
  std::size_t requests_dropped_deadline = 0;
  /// Relay changes between consecutively served snapshots of one request.
  std::size_t handovers = 0;

  /// Latency tail percentiles [s] over served requests. Filled by the em
  /// serving mode (classical heralding latency) and by the traffic serving
  /// mode (queueing + heralding); all 0 for the paper's instantaneous
  /// single-shot model, which has no latency notion.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  /// Queue-delay percentiles [s]; only the traffic serving mode fills these.
  double waiting_p50 = 0.0;
  double waiting_p95 = 0.0;
  double waiting_p99 = 0.0;

  /// Entanglement-management accounting (serving_mode = Entanglement only).
  struct EmSummary {
    bool enabled = false;
    std::size_t swaps = 0;                ///< Bell-state measurements
    std::size_t purification_rounds = 0;  ///< BBPSSW rounds spent
    std::size_t pairs_consumed = 0;       ///< buffered elementary pairs
    std::size_t slo_met = 0;              ///< served requests meeting SLO
    std::size_t multipath_spills = 0;     ///< served on an alternate route
    double mean_memory_occupancy = 0.0;   ///< in [0, 1]
    double mean_swap_depth = 0.0;         ///< heralding rounds per served
  } em;

  /// Open-arrival traffic accounting (serving_mode = Traffic only).
  struct TrafficSummary {
    bool enabled = false;
    /// Mean over windows of the busiest node's load fraction, in [0, 1].
    double mean_peak_utilisation = 0.0;
    /// Largest backlog any serving window reached.
    std::size_t peak_queue_depth = 0;
  } traffic;
};

/// --- Execution context threaded through every runner. ---
/// Aggregates the scenario parameters with the machinery an evaluation may
/// use. Everything but `config` is optional; pointers are borrowed and may
/// be nullptr.
struct RunContext {
  QntnConfig config{};
  /// Parallelises space_ground_sweep across constellation sizes; for single
  /// evaluations (and single-size sweeps) it is handed to run_scenario's
  /// parallel snapshot engine instead, unless config.parallel_snapshots is
  /// off. nullptr = run serially.
  ThreadPool* pool = nullptr;
  /// Metrics registry, installed as the ambient registry for the duration
  /// of each evaluation (so routing/topology layers report into it).
  obs::Registry* registry = nullptr;
  /// JSONL trace sink. Multi-size sweeps drop it (interleaved runs would
  /// garble the stream); single evaluations honour it.
  obs::TraceSink* trace = nullptr;
  /// Span profiler, installed as the thread's ambient profiler for the
  /// duration of each evaluation (worker threads included — every task
  /// carries the context). Per-thread buffers keep concurrent sweeps safe.
  obs::Profiler* profiler = nullptr;
  /// Overrides config.request_seed when set.
  std::optional<std::uint64_t> seed{};

  /// Derived: config.scenario_config() with the hooks and seed applied.
  [[nodiscard]] sim::ScenarioConfig scenario_config() const;
};

/// --- Figs. 6-8: the space-ground constellation sweep. ---

/// Constellation sizes of the paper's sweep: 6, 12, ..., 108.
[[nodiscard]] std::vector<std::size_t> paper_constellation_sizes();

/// Evaluate one constellation size end to end.
[[nodiscard]] ArchitectureMetrics evaluate_space_ground(
    const RunContext& ctx, std::size_t n_satellites);
[[nodiscard]] ArchitectureMetrics evaluate_space_ground(
    const QntnConfig& config, std::size_t n_satellites);

/// Evaluate the full sweep, parallelised across sizes on ctx.pool when set.
[[nodiscard]] std::vector<ArchitectureMetrics> space_ground_sweep(
    const RunContext& ctx, const std::vector<std::size_t>& sizes);
[[nodiscard]] std::vector<ArchitectureMetrics> space_ground_sweep(
    const QntnConfig& config, const std::vector<std::size_t>& sizes,
    ThreadPool& pool);

/// --- Section IV-C: air-ground architecture. ---
[[nodiscard]] ArchitectureMetrics evaluate_air_ground(const RunContext& ctx);
[[nodiscard]] ArchitectureMetrics evaluate_air_ground(const QntnConfig& config);

/// --- Extension: hybrid space+air architecture (paper future work). ---
[[nodiscard]] ArchitectureMetrics evaluate_hybrid(const RunContext& ctx,
                                                  std::size_t n_satellites);
[[nodiscard]] ArchitectureMetrics evaluate_hybrid(const QntnConfig& config,
                                                  std::size_t n_satellites);

/// --- Table III: the comparative summary (one row per architecture). ---
[[nodiscard]] std::vector<ArchitectureMetrics> table3_comparison(
    const RunContext& ctx, std::size_t space_ground_satellites = 108);
[[nodiscard]] std::vector<ArchitectureMetrics> table3_comparison(
    const QntnConfig& config, std::size_t space_ground_satellites = 108);

}  // namespace qntn::core
