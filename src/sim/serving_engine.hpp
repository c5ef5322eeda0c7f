#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "net/graph.hpp"

/// \file serving_engine.hpp
/// The unified serving API of the scenario loop (DESIGN.md §12). The three
/// serving modes — the paper's instantaneous single-shot links, the
/// entanglement-management layer (src/em), and the open-arrival traffic
/// engine — all answer the same question per snapshot ("what happened to
/// the requests issued against this topology?") but historically returned
/// three different result shapes. ServingEngine is the common interface:
/// a step index and snapshot time in, one ServeStepResult out, with a
/// single accounting identity every engine must satisfy:
///
///   issued = served + no_path + isolated + congested
///            + rejected_capacity + dropped_deadline
///
/// Engines are per-worker objects that own their snapshot slot and serving
/// scratch: the parallel scenario loop constructs one engine per chunk
/// worker, and every serve_step must be a pure function of (step, snapshot,
/// config) so the parallel and serial paths merge byte-identical results.
/// The step result and the scenario totals share one shape: the scenario
/// folds each step's ServeOutcome, EmStats and TrafficStats into its own
/// with their merge().

namespace qntn::sim {

/// Which engine serves the scenario's snapshots: the one selector of the
/// serving stage (ScenarioConfig::serving_mode, DESIGN.md §11/§12).
enum class ServingMode : std::uint8_t {
  /// The paper's model: every snapshot routes one path per request and
  /// serves it instantaneously from fresh link-generated pairs.
  SingleShot,
  /// The entanglement-management layer: buffered elementary pairs, swap
  /// trees, purification budgeting, k-disjoint multipath load balancing.
  Entanglement,
  /// The open-arrival traffic engine: per-LAN diurnal Poisson user
  /// populations served through the event-driven core with capacity
  /// claims, queueing deadlines, and backpressure.
  Traffic,
};

/// Unified per-request disposition across all serving engines. The names
/// (serve_disposition_name) match the historical trace vocabulary of the
/// single-shot and em modes, so trace bytes are unchanged by the redesign.
enum class ServeDisposition : std::uint8_t {
  Served,
  NoPath,            ///< endpoints have links, but no route connects them
  Isolated,          ///< an endpoint has no links at all this snapshot
  Congested,         ///< em: routes exist, but no candidate's relays can pay
  RejectedCapacity,  ///< traffic: refused at admission (backlog full)
  DroppedDeadline,   ///< traffic: queued longer than the deadline
};

[[nodiscard]] std::string_view serve_disposition_name(
    ServeDisposition disposition);

/// The common accounting every engine returns per step. The reconciliation
/// identity (reconciles()) is part of the API contract and pinned by tests:
/// every issued request lands in exactly one terminal bucket.
struct ServeOutcome {
  std::size_t issued = 0;
  std::size_t served = 0;
  std::size_t no_path = 0;
  std::size_t isolated = 0;
  std::size_t congested = 0;          ///< em serving only
  std::size_t rejected_capacity = 0;  ///< traffic backpressure only
  std::size_t dropped_deadline = 0;   ///< traffic deadline drops only
  RunningStats fidelity;              ///< over served requests
  RunningStats transmissivity;        ///< over served requests
  RunningStats hops;                  ///< over served requests

  /// Fold another step's accounting into this one: counts add, stats merge.
  void merge(const ServeOutcome& other);

  [[nodiscard]] bool reconciles() const {
    return issued == served + no_path + isolated + congested +
                         rejected_capacity + dropped_deadline;
  }
  [[nodiscard]] double served_fraction() const {
    return issued > 0
               ? static_cast<double>(served) / static_cast<double>(issued)
               : 0.0;
  }
};

/// Em-specific per-request detail (filled in ServingMode::Entanglement).
struct EmRecordDetail {
  std::size_t swaps = 0;
  std::size_t swap_depth = 0;
  std::size_t purification_rounds = 0;
  std::size_t pairs_consumed = 0;
  std::size_t route_index = 0;
};

/// Per-request telemetry record. Fixed-batch engines (single-shot, em) fill
/// one record per batch request, in batch order, on every step — the
/// scenario's handover accounting needs them. The traffic engine fills one
/// record per arrival, in arrival order, only when asked to record (tracing
/// a million-request day would otherwise dominate memory).
struct RequestRecord {
  ServeDisposition disposition = ServeDisposition::NoPath;
  double transmissivity = 0.0;  ///< served only
  double fidelity = 0.0;        ///< served only
  std::size_t hops = 0;         ///< served only
  /// First intermediate node of the committed route; nullopt for direct
  /// paths. Drives the scenario's handover accounting.
  std::optional<net::NodeId> relay;
  /// Request endpoints; filled by the traffic engine (fixed-batch engines
  /// leave them 0 — the scenario reads endpoints from the batch instead).
  net::NodeId source = 0;
  net::NodeId destination = 0;
  double latency = 0.0;  ///< em heralding / traffic end-to-end [s]
  double waiting = 0.0;  ///< traffic queueing component [s]
  EmRecordDetail em;
};

/// Entanglement-management statistics, filled only in
/// ServingMode::Entanglement: for one snapshot by the em engine, across
/// all snapshots by merge().
struct EmStats {
  std::size_t swaps = 0;                ///< BSMs across all served requests
  std::size_t purification_rounds = 0;  ///< BBPSSW rounds spent
  std::size_t pairs_consumed = 0;       ///< buffered pairs spent
  std::size_t slo_met = 0;              ///< served requests meeting the SLO
  std::size_t spilled = 0;              ///< served on an alternate route
  RunningStats memory_occupancy;        ///< one sample per snapshot, [0, 1]
  RunningStats swap_depth;              ///< per served request
  RunningStats latency;                 ///< heralding latency per served [s]
  /// Every served request's heralding latency, in batch order per snapshot
  /// and step order across them, for percentile reporting.
  std::vector<double> latency_samples;

  void merge(const EmStats& other);
};

/// Open-arrival traffic statistics, filled only in ServingMode::Traffic:
/// for one serving window by the traffic engine, across all windows by
/// merge().
struct TrafficStats {
  RunningStats latency;  ///< arrival -> pair delivered, served requests [s]
  RunningStats waiting;  ///< queueing component [s]
  /// Busiest node / capacity, one sample per window, in [0, 1].
  RunningStats peak_utilisation;
  std::size_t peak_queue_depth = 0;  ///< max backlog length over windows
  /// Per-served samples in service-start order per window and step order
  /// across them, for percentile reporting (p50/p95/p99).
  std::vector<double> latency_samples;
  std::vector<double> waiting_samples;

  void merge(const TrafficStats& other);
};

/// Everything one engine step produces: the common accounting plus the
/// mode-specific stats the scenario folds into its result and trace (only
/// the selected mode's stats are filled).
struct ServeStepResult {
  ServeOutcome outcome;
  std::vector<RequestRecord> requests;
  EmStats em;
  TrafficStats traffic;
};

/// Per-worker serving engine: topology snapshot in, step outcome out. Not
/// thread-safe — the parallel scenario loop constructs one per worker.
class ServingEngine {
 public:
  virtual ~ServingEngine() = default;

  /// Serve scenario step `step` whose snapshot time is `t` [s]. Must be a
  /// pure function of (step, t, construction inputs): no cross-step state
  /// that changes results (caches that only speed things up are fine).
  [[nodiscard]] virtual ServeStepResult serve_step(std::size_t step,
                                                   double t) = 0;
};

class NetworkModel;
class TopologyProvider;
struct Request;
struct ScenarioConfig;

/// Build the engine config.serving_mode selects. `requests` is the batch
/// the fixed-batch engines serve at every step (the traffic engine draws
/// its own arrivals); `step_interval` is the scenario's snapshot spacing
/// (the traffic engine's serving-window length); `record_requests` asks
/// the traffic engine for per-arrival records (fixed-batch engines always
/// record — the handover accounting needs them). Each parallel worker
/// calls this once; all referenced objects must outlive the engine.
[[nodiscard]] std::unique_ptr<ServingEngine> make_serving_engine(
    const NetworkModel& model, const TopologyProvider& topology,
    const std::vector<Request>& requests, const ScenarioConfig& config,
    double step_interval, bool record_requests);

}  // namespace qntn::sim
