#pragma once

#include <cstdint>
#include <optional>
#include <utility>
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
/// order over state that is a function of the snapshot's edge set, so the
/// result is a pure function of (snapshot graph, batch, options) — the
/// parallel scenario engine can serve snapshots on any thread in any order
/// and merge byte-identical results.

namespace qntn::em {

struct EmRequest {
  net::NodeId source = 0;
  net::NodeId destination = 0;

  bool operator==(const EmRequest&) const = default;
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
  /// eta-independent, which lets the route table hold the candidate sets
  /// (and the finder its trees) for a whole topology epoch.
  net::CostMetric metric = net::CostMetric::HopCount;

  /// Throws qntn::Error on degenerate parameters (delegates to the
  /// sub-option validators).
  void validate() const;
};

/// Serves batches snapshot by snapshot. Not thread-safe: each worker of the
/// parallel scenario engine owns one serving engine, and with it one
/// manager, which is all the per-epoch state needs.
class EntanglementManager {
 public:
  static constexpr std::size_t kNoEpoch = static_cast<std::size_t>(-1);

  explicit EntanglementManager(const EmOptions& options);

  /// Serve the batch on a snapshot graph. `epoch` is the topology epoch id
  /// of the snapshot (kNoEpoch when the provider has no partition). State
  /// that depends only on the edge set (pool buffers and the sorted edge
  /// index) is kept while the epoch id and the edge endpoints in edge
  /// order stay the same; with an eta-independent metric so are the search
  /// trees and the k-disjoint candidate routes per (source, destination),
  /// which are only re-priced per snapshot. Deterministic greedy serving
  /// in request order: the result does not depend on what the manager
  /// served before. The per-request outcomes land in outcomes().
  [[nodiscard]] EmServeResult serve(const net::Graph& graph,
                                    const std::vector<EmRequest>& requests,
                                    std::size_t epoch,
                                    quantum::FidelityConvention convention);

  /// One outcome per request of the last serve(), in request order. The
  /// buffer is reused by the next serve().
  [[nodiscard]] const std::vector<EmOutcome>& outcomes() const {
    return outcomes_;
  }

  [[nodiscard]] const EmOptions& options() const { return options_; }

 private:
  /// True when the per-epoch state below was built for `epoch` from a
  /// graph with `graph`'s edge endpoints in the same order.
  [[nodiscard]] bool epoch_state_matches(const net::Graph& graph,
                                         std::size_t epoch) const;
  /// Rebuild the per-epoch state from `graph`'s edge set.
  void build_epoch_state(const net::Graph& graph, std::size_t epoch);
  /// Of each linked pair's parallel edges pick the best eta of this
  /// snapshot into edge_index_.
  void pick_best_edges(const net::Graph& graph);
  /// Point every request at the route slot of its (source, destination)
  /// pair, emptying the route table, when `requests` differs from batch_.
  void bind_batch(const std::vector<EmRequest>& requests);
  /// Candidate routes for request `r` of the bound batch: from its route
  /// slot when `cacheable` and filled this epoch, computed by finder_ into
  /// the slot otherwise.
  const std::vector<net::Route>& candidates(std::size_t r, bool cacheable);

  EmOptions options_;

  // Per-epoch state, rebuilt when epoch_state_matches() fails.
  std::size_t state_epoch_ = kNoEpoch;
  /// Bumped by every build_epoch_state(); a route slot is valid while its
  /// stamp equals it.
  std::size_t state_stamp_ = 0;
  std::size_t state_node_count_ = 0;
  std::vector<std::pair<net::NodeId, net::NodeId>> state_edges_;
  MemoryPool pool_;  ///< capacities per epoch, consumption per snapshot
  /// Every edge as (endpoint pair with the smaller id first, edge index),
  /// sorted: parallel edges are adjacent, in index order.
  std::vector<std::pair<std::pair<net::NodeId, net::NodeId>, std::size_t>>
      sorted_edges_;
  /// One entry per linked pair, sorted; the edge index is the pair's
  /// best-eta parallel edge, re-picked per snapshot by pick_best_edges().
  std::vector<std::pair<std::pair<net::NodeId, net::NodeId>, std::size_t>>
      edge_index_;
  /// Shared search trees behind the candidate sets: kept for the epoch
  /// under an eta-independent metric, reset per snapshot otherwise.
  net::DisjointPathFinder finder_;

  // Route table: one slot per distinct (source, destination) of the batch.
  struct RouteSlot {
    std::size_t stamp = 0;  ///< state_stamp_ when filled; 0 = not valid
    std::vector<net::Route> routes;
  };
  std::vector<EmRequest> batch_;
  std::vector<std::size_t> request_slot_;  ///< per request of batch_
  std::vector<RouteSlot> route_slots_;

  /// Per-snapshot scratch, cleared in serve().
  std::vector<EmOutcome> outcomes_;      ///< per request, read via outcomes()
  std::vector<std::size_t> node_load_;   ///< BSMs committed per node
  std::vector<std::size_t> hop_edges_;   ///< per-hop edge index of a route
  std::vector<double> hop_etas_;
  std::vector<double> hop_durations_;
};

}  // namespace qntn::em
