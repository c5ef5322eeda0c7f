#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "em/memory_pool.hpp"
#include "em/purify_budget.hpp"
#include "em/swap_tree.hpp"
#include "net/kpaths.hpp"
#include "net/routing.hpp"
#include "quantum/fidelity.hpp"

/// \file serving.hpp
/// The entanglement manager: serves a request batch against one topology
/// snapshot from *buffered resources* instead of the paper's instantaneous
/// single-shot links. Per request it (1) finds up to k interior-disjoint
/// candidate routes, (2) plans a swap tree over the route's buffered
/// elementary pairs, (3) prices the delivered fidelity with the
/// storage-decoherence closed form, (4) budgets purification rounds against
/// the fidelity SLO, and (5) commits the first candidate route whose relays
/// and buffers can pay — congested relays thereby spill requests onto the
/// alternate disjoint routes (multipath load balancing).
///
/// Determinism discipline (DESIGN.md §11): serving is greedy in request
/// order over state rebuilt per snapshot, so the result is a pure function
/// of (snapshot graph, batch, options) — the parallel scenario engine can
/// serve snapshots on any thread in any order and merge byte-identical
/// results.

namespace qntn::em {

struct EmRequest {
  net::NodeId source = 0;
  net::NodeId destination = 0;
};

/// Why a request was or wasn't served from the buffered pool.
enum class EmStatus : std::uint8_t {
  Served,
  NoPath,     ///< endpoints have links, but no route connects them
  Isolated,   ///< an endpoint has no links at all this snapshot
  Congested,  ///< routes exist, but no candidate's relays/buffers can pay
};

/// Per-request serving detail.
struct EmOutcome {
  EmStatus status = EmStatus::NoPath;
  double fidelity = 0.0;        ///< delivered (post-purification) fidelity
  double transmissivity = 0.0;  ///< end-to-end eta product of the route
  std::size_t hops = 0;
  std::size_t swaps = 0;                ///< Bell-state measurements spent
  std::size_t swap_depth = 0;           ///< heralding rounds of the tree
  std::size_t purification_rounds = 0;  ///< BBPSSW rounds spent
  std::size_t pairs_consumed = 0;       ///< buffered pairs spent, all hops
  /// Which candidate route served it: 0 = cheapest; > 0 means the request
  /// spilled onto an alternate disjoint route past a congested one.
  std::size_t route_index = 0;
  bool slo_met = true;   ///< delivered fidelity met the SLO (true if off)
  double latency = 0.0;  ///< classical heralding latency paid [s]
  /// First intermediate node of the committed route; nullopt for direct
  /// paths (mirrors sim::RequestRecord::relay).
  std::optional<net::NodeId> relay;
};

/// Outcome of serving one batch against one snapshot.
struct EmServeResult {
  std::size_t total = 0;
  std::size_t served = 0;
  std::size_t unserved_no_path = 0;
  std::size_t unserved_isolated = 0;
  std::size_t unserved_congested = 0;

  std::size_t swaps = 0;                ///< BSMs across served requests
  std::size_t purification_rounds = 0;  ///< BBPSSW rounds across served
  std::size_t pairs_consumed = 0;       ///< buffered pairs spent
  std::size_t slo_met = 0;              ///< served requests meeting the SLO
  std::size_t spilled = 0;              ///< served on route_index > 0

  RunningStats fidelity;        ///< delivered, over served requests
  RunningStats transmissivity;  ///< over served requests
  RunningStats hops;            ///< over served requests
  RunningStats latency;         ///< heralding latency, over served requests
  RunningStats swap_depth;      ///< over served requests
  /// Memory occupancy of the rebuilt pool at this snapshot, in [0, 1].
  double memory_occupancy = 0.0;

  /// Filled only when serve() is called with record_outcomes = true.
  std::vector<EmOutcome> outcomes;

  [[nodiscard]] double served_fraction() const {
    return total > 0 ? static_cast<double>(served) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Parameters of the entanglement manager. Scenarios select it with
/// sim::ServingMode::Entanglement; these options only configure it.
struct EmOptions {
  MemoryPoolOptions pool{};
  SwapPlanOptions swap{};
  PurifyOptions purify{};
  /// Candidate interior-disjoint routes per request (the load-balancing
  /// fan-out).
  std::size_t k_paths = 3;
  /// Bell-state measurements a relay can perform per snapshot.
  std::size_t node_capacity = 8;
  /// Routing metric for the candidate routes. HopCount (the default) is
  /// eta-independent, which lets the per-epoch route cache hold the
  /// candidate sets for a whole topology epoch.
  net::CostMetric metric = net::CostMetric::HopCount;

  /// Throws qntn::Error on degenerate parameters (delegates to the
  /// sub-option validators).
  void validate() const;
};

/// Serves batches snapshot by snapshot. Not thread-safe: each worker of the
/// parallel scenario engine owns one serving engine, and with it one
/// manager, which is all the route cache needs.
class EntanglementManager {
 public:
  static constexpr std::size_t kNoEpoch = static_cast<std::size_t>(-1);

  explicit EntanglementManager(const EmOptions& options);

  /// Serve the batch on a snapshot graph. `epoch` is the topology epoch id
  /// of the snapshot (kNoEpoch when the provider has no partition): with an
  /// eta-independent metric the k-disjoint candidate routes are cached per
  /// (source, destination) for the whole epoch and only re-priced per
  /// snapshot. Deterministic greedy serving in request order.
  [[nodiscard]] EmServeResult serve(const net::Graph& graph,
                                    const std::vector<EmRequest>& requests,
                                    std::size_t epoch,
                                    quantum::FidelityConvention convention,
                                    bool record_outcomes);

  [[nodiscard]] const EmOptions& options() const { return options_; }

 private:
  /// Candidate routes for (source, destination), from the epoch cache when
  /// valid, computed by finder_ (and cached when cacheable) otherwise.
  const std::vector<net::Route>& candidates(net::NodeId source,
                                            net::NodeId destination,
                                            std::size_t epoch);

  EmOptions options_;
  MemoryPool pool_;

  /// Shared search trees behind every candidate set of one serve() call;
  /// reset at the top of each call, so no tree outlives its graph.
  net::DisjointPathFinder finder_;
  /// Per-epoch route cache (valid only for eta-independent metrics).
  std::size_t cache_epoch_ = kNoEpoch;
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<net::Route>>
      route_cache_;
  /// Scratch for the non-cacheable path (recomputed per request).
  std::vector<net::Route> scratch_routes_;

  /// Per-snapshot scratch, cleared in serve().
  std::vector<std::size_t> node_load_;   ///< BSMs committed per node
  std::vector<std::size_t> node_degree_;
  /// (endpoint pair with the smaller id first, edge index), sorted, one
  /// entry per linked pair: the best-eta of its parallel edges.
  std::vector<std::pair<std::pair<net::NodeId, net::NodeId>, std::size_t>>
      edge_index_;
  std::vector<std::size_t> hop_edges_;   ///< per-hop edge index of a route
  std::vector<double> hop_etas_;
  std::vector<double> hop_durations_;
};

}  // namespace qntn::em
