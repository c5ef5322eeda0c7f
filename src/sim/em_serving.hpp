#pragma once

#include <utility>
#include <vector>

#include "em/memory_pool.hpp"
#include "em/purify_budget.hpp"
#include "em/swap_tree.hpp"
#include "net/kpaths.hpp"
#include "net/routing.hpp"
#include "quantum/fidelity.hpp"
#include "sim/requests.hpp"
#include "sim/serving_engine.hpp"
#include "sim/topology.hpp"

/// \file em_serving.hpp
/// The entanglement manager (`ServingMode::Entanglement`, DESIGN.md §11):
/// serves a request batch against one topology snapshot from *buffered
/// resources* (the src/em models) instead of the paper's instantaneous
/// single-shot links. Per request it (1) finds up to k interior-disjoint
/// candidate routes, (2) plans a swap tree over the route's buffered
/// elementary pairs, (3) prices the delivered fidelity with the
/// storage-decoherence closed form, (4) budgets purification rounds against
/// the fidelity SLO, and (5) commits the first candidate route whose relays
/// and buffers can pay — congested relays thereby spill requests onto the
/// alternate disjoint routes (multipath load balancing).
///
/// Determinism discipline: serving is greedy in request order over state
/// that is a function of the snapshot's edge set, so the result is a pure
/// function of (snapshot graph, batch, options) — the parallel scenario
/// engine can serve snapshots on any thread in any order and merge
/// byte-identical results.

namespace qntn::sim {

/// Parameters of the entanglement manager. Scenarios select it with
/// ServingMode::Entanglement; these options only configure it.
struct EmOptions {
  em::MemoryPoolOptions pool{};
  em::SwapPlanOptions swap{};
  em::PurifyOptions purify{};
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
  explicit EntanglementManager(const EmOptions& options);

  /// Serve the batch on a snapshot graph. `epoch` is the topology epoch id
  /// of the snapshot (TopologyProvider::kNoEpoch when the provider has no
  /// partition). State that depends only on the edge set (pool buffers and
  /// the sorted edge index) is kept while the epoch id and the edge
  /// endpoints in edge order stay the same; with an eta-independent metric
  /// so are the search trees and the k-disjoint candidate routes per
  /// (source, destination), which are only re-priced per snapshot.
  /// Deterministic greedy serving in request order: the result does not
  /// depend on what the manager served before. The result holds one
  /// RequestRecord per request, in request order, and the snapshot's
  /// EmStats.
  [[nodiscard]] ServeStepResult serve(const net::Graph& graph,
                                      const std::vector<Request>& requests,
                                      std::size_t epoch,
                                      quantum::FidelityConvention convention);

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
  void bind_batch(const std::vector<Request>& requests);
  /// Candidate routes for request `r` of the bound batch: from its route
  /// slot when `cacheable` and filled this epoch, computed by finder_ into
  /// the slot otherwise.
  const std::vector<net::Route>& candidates(std::size_t r, bool cacheable);

  EmOptions options_;

  // Per-epoch state, rebuilt when epoch_state_matches() fails.
  std::size_t state_epoch_ = TopologyProvider::kNoEpoch;
  /// Bumped by every build_epoch_state(); a route slot is valid while its
  /// stamp equals it.
  std::size_t state_stamp_ = 0;
  std::size_t state_node_count_ = 0;
  std::vector<std::pair<net::NodeId, net::NodeId>> state_edges_;
  em::MemoryPool pool_;  ///< capacities per epoch, consumption per snapshot
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
  std::vector<Request> batch_;
  std::vector<std::size_t> request_slot_;  ///< per request of batch_
  std::vector<RouteSlot> route_slots_;

  /// Per-snapshot scratch, cleared in serve().
  std::vector<std::size_t> node_load_;   ///< BSMs committed per node
  std::vector<std::size_t> hop_edges_;   ///< per-hop edge index of a route
  std::vector<double> hop_etas_;
  std::vector<double> hop_durations_;
};

}  // namespace qntn::sim
