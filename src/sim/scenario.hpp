#pragma once

#include <cstdint>

#include "sim/coverage.hpp"
#include "sim/em_serving.hpp"
#include "sim/requests.hpp"
#include "sim/traffic.hpp"

namespace qntn::obs {
class Profiler;
class Registry;
class TraceSink;
}  // namespace qntn::obs

/// \file scenario.hpp
/// End-to-end scenario evaluation: coverage over a day plus request serving
/// over repeated topology snapshots — the measurement protocol behind the
/// paper's Figs. 6-8 and Table III.

namespace qntn::sim {

struct ScenarioConfig {
  /// Coverage timeline (Eq. 6/7).
  CoverageOptions coverage{};

  /// Request workload: `request_count` random inter-LAN requests, re-served
  /// at `request_steps` successive snapshots of satellite movement and
  /// averaged (paper Section IV-B). The paper does not state the snapshot
  /// spacing; we default to spreading the snapshots uniformly over the
  /// whole day so the average sees every orbital phase, and expose the
  /// interval for sensitivity studies.
  std::size_t request_count = 100;
  std::size_t request_steps = 100;
  /// [s]; 100 steps x 864 s = 1 day. run_scenario clamps the interval (with
  /// a warning) whenever request_steps * request_step_interval would walk
  /// the snapshots past coverage.duration — ephemerides only span the day.
  double request_step_interval = 864.0;

  net::CostMetric metric = net::CostMetric::InverseEta;
  quantum::FidelityConvention convention = quantum::FidelityConvention::Uhlmann;
  std::uint64_t request_seed = 20240101;

  /// Optional observability hooks (borrowed, may be nullptr). The registry
  /// collects counters/timers — it is also installed as the thread's
  /// ambient registry for the duration of run_scenario, so the layers below
  /// (routing, topology replay) report into it. The trace sink receives the
  /// per-snapshot / per-request JSONL events its TraceLevel admits.
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Span profiler, installed as the thread's ambient profiler for the
  /// duration of run_scenario so the layers below record spans into it.
  obs::Profiler* profiler = nullptr;

  /// Borrowed pool for the parallel snapshot engine (nullptr = serial). With
  /// a pool AND an epoch-partitioned topology provider (or the traffic
  /// serving mode, whose event windows are heavy enough to chunk on any
  /// provider), request serving fans out across workers and is merged with
  /// a deterministic ordered reduction — every metric, counter total, and
  /// trace byte is identical to the serial run. Never pass a pool when
  /// run_scenario itself executes on one of that pool's workers (the nested
  /// fan-out would deadlock); the architecture sweeps therefore null it for
  /// their inner evaluations.
  ThreadPool* pool = nullptr;

  /// The serving engine (DESIGN.md §12). SingleShot, the default, is the
  /// paper's instantaneous serving, so seed results are untouched.
  /// Entanglement serves the batch from buffered elementary pairs via swap
  /// trees, purification budgeting, and k-disjoint multipath routing
  /// (§11). Traffic replaces the fixed batch with per-LAN Poisson user
  /// populations with a diurnal rate profile, served through the
  /// event-driven engine (capacity claims, queueing deadlines,
  /// backpressure) one window per snapshot step.
  ServingMode serving_mode = ServingMode::SingleShot;
  /// Parameters of the Entanglement engine (read only in that mode).
  EmOptions em{};
  /// Parameters of the Traffic engine (read only in that mode).
  TrafficConfig traffic{};
};

struct ScenarioResult {
  CoverageResult coverage;
  /// Served requests over issued requests across the whole run (the
  /// paper's "percentage of served requests"), in [0, 1]; 0 when nothing
  /// was issued. Request-weighted, so a traffic window with no arrivals
  /// does not count as a 0 % window. Fixed-batch modes issue the same
  /// count at every snapshot, where this is the mean of served_per_step.
  double served_fraction = 0.0;
  /// Distribution of per-snapshot served fractions (a snapshot with no
  /// requests contributes 0).
  RunningStats served_per_step;
  /// Every snapshot's ServeOutcome folded into one: request accounting
  /// totals, whose identity holds mode-independently (issued = served +
  /// no_path + isolated + congested + rejected_capacity +
  /// dropped_deadline), and fidelity, end-to-end transmissivity and path
  /// length (edges) over every served request.
  ServeOutcome totals;
  /// Relay changes between consecutively served snapshots of one request
  /// (fixed-batch modes only; open arrivals have no cross-step identity).
  std::size_t handovers = 0;

  /// Entanglement-management statistics (Entanglement mode only).
  EmStats em;
  /// Open-arrival traffic statistics (Traffic mode only).
  TrafficStats traffic;
};

/// Run coverage + request serving for one architecture.
[[nodiscard]] ScenarioResult run_scenario(const NetworkModel& model,
                                          const TopologyProvider& topology,
                                          const ScenarioConfig& config);

}  // namespace qntn::sim
