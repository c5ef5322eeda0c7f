#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/routing.hpp"

/// \file kpaths.hpp
/// K-shortest loopless paths (Yen's algorithm) on the transmissivity
/// graph. Extends the paper's single-path Bellman-Ford routing with path
/// diversity: a network that can offer several disjoint-ish routes per
/// request degrades gracefully when links churn (satellite handover, HAP
/// downtime), which the hybrid-architecture bench quantifies.

namespace qntn::net {

/// Up to k best loopless routes from src to dst under the metric, ordered
/// by cost (ties broken arbitrarily but deterministically). Fewer than k
/// are returned when the graph has fewer distinct loopless paths.
[[nodiscard]] std::vector<Route> k_shortest_paths(
    const Graph& graph, NodeId src, NodeId dst, std::size_t k,
    CostMetric metric = CostMetric::InverseEta);

/// Up to k pairwise interior-node-disjoint routes from src to dst, ordered
/// by non-decreasing cost: successive shortest paths, each masking the
/// interior nodes of every accepted route. Endpoints may be shared; interior
/// relays never are, so the routes fail independently when a relay saturates
/// or drops out — the property the entanglement-management layer's multipath
/// load balancer relies on. Fewer than k routes are returned when the graph
/// runs out of disjoint alternatives (k larger than available is not an
/// error). src == dst gives the single one-node route [src]. One-shot
/// wrapper over a fresh DisjointPathFinder.
[[nodiscard]] std::vector<Route> k_disjoint_paths(
    const Graph& graph, NodeId src, NodeId dst, std::size_t k,
    CostMetric metric = CostMetric::InverseEta);

/// Answers k_disjoint_paths queries for many (src, dst) pairs of one graph
/// from shared shortest-path trees instead of one masked search per pair.
/// The i-th candidate of (src, dst) is the path to dst in the Dijkstra tree
/// rooted at src with the interiors of candidates 0..i-1 banned, so one
/// tree per (source, sorted banned-interior set) serves every destination
/// whose earlier candidates used the same relays. Trees grow lazily, only
/// as far as the queries so far need, and resume where they stopped.
///
/// Exact by construction: edge costs are non-negative, a per-pair search
/// that stops when it pops dst performs the same heap operations as the
/// tree up to that pop, and no later pop can change dst's cost or any
/// predecessor on its path — so paths, costs and transmissivities match the
/// per-pair search bit for bit. Once a direct src-dst route is accepted the
/// edge itself is banned, which depends on dst; only that case falls back
/// to a per-pair masked search.
///
/// Under HopCount the trees grow breadth-first: a FIFO whose every level is
/// sorted by node id on entry pops exactly the heap's (cost, id) sequence,
/// so labels and pause points are the Dijkstra tree's.
///
/// Trees belong to the graph passed to reset() or rebind(); the graph must
/// stay alive, and its edges unchanged, until the next reset() or rebind().
/// Storage is kept across resets.
class DisjointPathFinder {
 public:
  /// Bind to `graph` under `metric` and drop every tree.
  void reset(const Graph& graph, CostMetric metric);

  /// Bind to `graph` and keep every tree. `graph` must hold the bound
  /// graph's edges in the same order (only etas may differ) and the metric
  /// must be eta-independent, so every tree is still exact; transmissivities
  /// of later routes are read from `graph`.
  void rebind(const Graph& graph);

  /// k_disjoint_paths(graph, src, dst, k, metric), written into `out`
  /// (cleared first).
  void find(NodeId src, NodeId dst, std::size_t k, std::vector<Route>& out);

 private:
  using HeapItem = std::pair<double, NodeId>;
  struct Tree;

  /// Slot of the tree rooted at `source` with `mask_` banned, created
  /// (empty, seeded with the source) when absent.
  std::size_t tree_for(NodeId source);
  /// Pop the slot's frontier until `dst` is settled or the frontier runs
  /// dry; true when dst is reachable.
  bool grow(std::size_t slot, NodeId dst);
  /// grow()'s loop for positive edge costs (binary heap) and for HopCount
  /// (id-sorted levels); the slot's mask is already marked in banned_.
  void grow_heap(Tree& tree, NodeId dst);
  void grow_levels(Tree& tree, NodeId dst);

  const Graph* graph_ = nullptr;
  CostMetric metric_ = CostMetric::InverseEta;
  std::size_t node_count_ = 0;

  /// One node of one tree, packed into 16 bytes.
  struct Label {
    double cost = 0.0;
    std::uint32_t previous = 0;  ///< predecessor once cost is finite
    bool settled = false;        ///< popped: cost and path are final
  };
  /// A tree slot. Slots are reused across resets in creation order, so
  /// their vectors keep their capacity.
  struct Tree {
    std::size_t mask_begin = 0;  ///< its banned set: masks_[begin, end)
    std::size_t mask_end = 0;
    std::size_t next = 0;        ///< next slot with the same source
    std::vector<Label> labels;   ///< per node
    std::vector<HeapItem> heap;  ///< the paused search's frontier
    /// HopCount frontier instead of the heap: nodes in pop order, popped up
    /// to `head`; [head, level_end) is the rest of the current level, id
    /// sorted, and [level_end, end) the next level as discovered.
    std::vector<NodeId> queue;
    std::size_t head = 0;
    std::size_t level_end = 0;
  };
  std::vector<Tree> trees_;
  std::size_t tree_count_ = 0;
  std::vector<NodeId> masks_;  ///< every slot's sorted banned set
  std::vector<std::size_t> head_;  ///< per source: its newest slot
  std::vector<unsigned char> banned_;  ///< scratch: the growing slot's mask
  std::vector<NodeId> mask_;  ///< the current query's banned interiors
};

/// Diversity of a route set: 1 - (shared intermediate nodes / total
/// intermediate nodes across pairs); 1 means fully node-disjoint interiors,
/// 0 means every alternative reuses the same relays. Routes with no
/// interior nodes (direct edges) count as disjoint. Returns 1.0 for fewer
/// than two routes.
[[nodiscard]] double path_diversity(const std::vector<Route>& routes);

}  // namespace qntn::net
