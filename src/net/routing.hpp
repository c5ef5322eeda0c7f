#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/graph.hpp"

/// \file routing.hpp
/// Entanglement routing. The paper adopts Bellman-Ford with the additive
/// edge cost 1/(eta + eps) (Section III-B, Algorithm 1); we implement that
/// algorithm faithfully in its distance-vector form, plus two baselines on
/// the same graph for the routing-metric ablation:
///  - Dijkstra on the same cost (identical optimal costs, used as an oracle
///    in tests),
///  - the product-optimal metric -log(eta), which maximises end-to-end
///    transmissivity (what a fidelity-optimal router would use).

namespace qntn::net {

/// Epsilon of the paper's cost metric 1/(eta + eps); prevents division by
/// zero on dead links.
inline constexpr double kRoutingEpsilon = 1e-9;

enum class CostMetric {
  InverseEta,  ///< 1/(eta + eps) — the paper's Algorithm 1 metric
  NegLogEta,   ///< -log(eta + eps) — maximises the transmissivity product
  HopCount,    ///< 1 per edge — shortest-path baseline
};

/// Edge cost under a metric.
[[nodiscard]] double edge_cost(double transmissivity, CostMetric metric);

/// True when the metric's edge cost does not depend on the transmissivity
/// (HopCount): shortest-path trees over one edge *set* can then be cached
/// across snapshots that only re-weight edges (the per-epoch route cache).
[[nodiscard]] constexpr bool metric_is_eta_independent(CostMetric metric) {
  return metric == CostMetric::HopCount;
}

/// Cost of every edge of `graph` under `metric`, parallel to graph.edges().
/// Appends into `out` (cleared first) so serving loops reuse one scratch
/// buffer instead of re-running edge_cost — a std::log per edge for
/// NegLogEta — inside every Bellman-Ford round.
void compute_edge_costs(const Graph& graph, CostMetric metric,
                        std::vector<double>& out);

/// A resolved route.
struct Route {
  std::vector<NodeId> path;     ///< node sequence, source first
  double cost = 0.0;            ///< total additive cost under the metric
  double transmissivity = 1.0;  ///< product of edge transmissivities
};

/// One entry of a node's routing table (Algorithm 1's R[i] = {cost, via}).
struct RoutingEntry {
  double cost = 0.0;
  std::optional<NodeId> via;  ///< intermediate target; nullopt = unreachable
};

/// Faithful implementation of the paper's Algorithm 1: every node holds a
/// routing table; INITIALIZE seeds self/adjacent/infinity entries; UPDATE
/// relaxes each node's table against its neighbours' tables; the main loop
/// runs N-1 sweeps. The simulation shortcut of Section III-B (tables of
/// other nodes are directly accessible, step 2 omitted) matches the paper.
class DistanceVectorRouter {
 public:
  explicit DistanceVectorRouter(const Graph& graph,
                                CostMetric metric = CostMetric::InverseEta);

  /// Routing table of `node` after convergence.
  [[nodiscard]] const std::vector<RoutingEntry>& table(NodeId node) const;

  /// Reconstruct the route from src to dst by expanding the `via` chain;
  /// nullopt if dst is unreachable.
  [[nodiscard]] std::optional<Route> route(NodeId src, NodeId dst) const;

 private:
  const Graph& graph_;
  CostMetric metric_;
  std::vector<std::vector<RoutingEntry>> tables_;  // [node][dest]
};

/// Classic single-source Bellman-Ford with predecessor tracking; returns
/// the route or nullopt if unreachable. Used by the simulator's serving
/// loop (one run per distinct request source per time step).
[[nodiscard]] std::optional<Route> bellman_ford(const Graph& graph, NodeId src,
                                                NodeId dst,
                                                CostMetric metric =
                                                    CostMetric::InverseEta);

/// All-destination single-source Bellman-Ford: cost and predecessor arrays.
struct ShortestPathTree {
  std::vector<double> cost;                     ///< infinity if unreachable
  std::vector<std::optional<NodeId>> previous;  ///< predecessor on best path
};
[[nodiscard]] ShortestPathTree bellman_ford_tree(const Graph& graph, NodeId src,
                                                 CostMetric metric);

/// Same relaxation with caller-precomputed edge costs (parallel to
/// graph.edges(), e.g. from compute_edge_costs). Lets a serving loop price
/// the snapshot's edges once and amortise the cost across every source's
/// tree instead of re-deriving them per tree per round.
[[nodiscard]] ShortestPathTree bellman_ford_tree(
    const Graph& graph, NodeId src, const std::vector<double>& edge_costs);

/// Same, written into `out`, whose storage is reused across calls.
void bellman_ford_tree(const Graph& graph, NodeId src,
                       const std::vector<double>& edge_costs,
                       ShortestPathTree& out);

/// The half-edges of one graph in bellman_ford_tree's sweep order, plus the
/// per-tree scratch of hop_count_tree. Edge i = (a, b) is relaxed as a->b
/// at sweep position 2i and as b->a at 2i + 1; here a lists (b, 2i) and b
/// lists (a, 2i + 1).
struct HopTreeScratch {
  struct HalfEdge {
    NodeId to = 0;
    std::int64_t position = 0;
  };
  /// Node u's half-edges are half_edges[offsets[u] .. offsets[u + 1]).
  std::vector<std::size_t> offsets;
  std::vector<HalfEdge> half_edges;   ///< one per sweep position
  std::vector<std::int64_t> settled;  ///< per node: when its cost became final
  std::vector<NodeId> queue;
};

/// Index `graph`'s half-edges into `scratch`; once per graph, before any
/// hop_count_tree over it.
void index_half_edges(const Graph& graph, HopTreeScratch& scratch);

/// The tree bellman_ford_tree builds under CostMetric::HopCount, bit for
/// bit (costs and every predecessor), by breadth-first search in
/// O(V + E). `scratch` must hold the index of `graph`; `out`'s storage is
/// reused. The rule (DESIGN.md §13): in the in-place sweep, v's final
/// predecessor is the level-(d−1) neighbour u whose u->v relaxation comes
/// first after u's own cost became final, at time round × 2m + position
/// for m edges (the source is final at −1). The search keeps, per node of the next
/// level, the earliest such time and the u that gives it.
void hop_count_tree(const Graph& graph, NodeId src, HopTreeScratch& scratch,
                    ShortestPathTree& out);

/// Dijkstra with a binary heap on the same metrics (costs are non-negative
/// for every metric above, so it applies). Oracle/baseline for tests and
/// the perf benches.
[[nodiscard]] std::optional<Route> dijkstra(const Graph& graph, NodeId src,
                                            NodeId dst,
                                            CostMetric metric =
                                                CostMetric::InverseEta);

/// Extract a route from a shortest-path tree.
[[nodiscard]] std::optional<Route> route_from_tree(const Graph& graph,
                                                   const ShortestPathTree& tree,
                                                   NodeId src, NodeId dst);

/// Reusable scratch for reroute_around_saturated, plus tallies of how its
/// calls were settled.
struct RerouteScratch {
  std::vector<std::uint32_t> seen;  ///< node visited iff == stamp
  std::uint32_t stamp = 0;
  std::vector<NodeId> queue;
  std::vector<double> masked_costs;
  std::size_t gated = 0;  ///< calls the reachability gate settled, no tree
  std::size_t trees = 0;  ///< masked trees built
};

/// Saturation reroute: the route route_from_tree extracts from a
/// Bellman-Ford tree over `edge_costs` with every edge touching a saturated
/// node (load[id] >= capacity) priced to +inf, or nullopt when that tree
/// has no finite-cost route to dst. An early-exit BFS over the unsaturated
/// nodes runs first: it ignores costs, so it reaches at least every node the
/// masked tree reaches at finite cost, and when it misses dst the call
/// returns nullopt without copying the costs or building the tree.
[[nodiscard]] std::optional<Route> reroute_around_saturated(
    const Graph& graph, const std::vector<double>& edge_costs,
    const std::vector<std::size_t>& load, std::size_t capacity, NodeId src,
    NodeId dst, RerouteScratch& scratch);

}  // namespace qntn::net
