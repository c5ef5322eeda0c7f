// Exhaustive oracle tests: on small random graphs, compare every router
// (and Yen's enumeration) against brute-force enumeration of all simple
// paths — the strongest correctness check available for the routing layer.
// The breadth-first hop-count tree is checked against Bellman-Ford itself,
// bit for bit, since it must reproduce Bellman-Ford's tie-break too.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "net/kpaths.hpp"
#include "net/routing.hpp"

namespace qntn::net {
namespace {

struct EnumeratedPath {
  std::vector<NodeId> path;
  double cost = 0.0;
  double transmissivity = 1.0;
};

/// Depth-first enumeration of every simple path src -> dst.
void enumerate(const Graph& g, NodeId current, NodeId dst, CostMetric metric,
               std::vector<bool>& visited, EnumeratedPath& partial,
               std::vector<EnumeratedPath>& out) {
  if (current == dst) {
    out.push_back(partial);
    return;
  }
  // De-duplicate parallel edges by keeping the best per neighbour.
  std::vector<std::pair<NodeId, double>> best;
  for (const Adjacency& adj : g.neighbors(current)) {
    bool merged = false;
    for (auto& [to, eta] : best) {
      if (to == adj.to) {
        eta = std::max(eta, adj.transmissivity);
        merged = true;
      }
    }
    if (!merged) best.emplace_back(adj.to, adj.transmissivity);
  }
  for (const auto& [to, eta] : best) {
    if (visited[to]) continue;
    visited[to] = true;
    EnumeratedPath saved = partial;
    partial.path.push_back(to);
    partial.cost += edge_cost(eta, metric);
    partial.transmissivity *= eta;
    enumerate(g, to, dst, metric, visited, partial, out);
    partial = std::move(saved);
    visited[to] = false;
  }
}

std::vector<EnumeratedPath> all_paths(const Graph& g, NodeId src, NodeId dst,
                                      CostMetric metric) {
  std::vector<EnumeratedPath> out;
  std::vector<bool> visited(g.node_count(), false);
  visited[src] = true;
  EnumeratedPath partial;
  partial.path.push_back(src);
  enumerate(g, src, dst, metric, visited, partial, out);
  return out;
}

Graph random_graph(std::size_t n, double p, Rng& rng) {
  Graph g;
  for (std::size_t i = 0; i < n; ++i) g.add_node();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < p) g.add_edge(i, j, rng.uniform(0.1, 1.0));
    }
  }
  return g;
}

class RoutingOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingOracle, AllRoutersMatchBruteForceOptimum) {
  Rng rng(GetParam());
  const Graph g = random_graph(8, 0.45, rng);
  for (const auto metric :
       {CostMetric::InverseEta, CostMetric::NegLogEta, CostMetric::HopCount}) {
    const DistanceVectorRouter dv(g, metric);
    for (NodeId src = 0; src < g.node_count(); ++src) {
      for (NodeId dst = 0; dst < g.node_count(); ++dst) {
        if (src == dst) continue;
        const auto paths = all_paths(g, src, dst, metric);
        std::optional<double> oracle;
        for (const EnumeratedPath& p : paths) {
          oracle = oracle ? std::min(*oracle, p.cost) : p.cost;
        }
        const auto bf = bellman_ford(g, src, dst, metric);
        const auto dj = dijkstra(g, src, dst, metric);
        const auto dvr = dv.route(src, dst);
        ASSERT_EQ(bf.has_value(), oracle.has_value());
        ASSERT_EQ(dj.has_value(), oracle.has_value());
        ASSERT_EQ(dvr.has_value(), oracle.has_value());
        if (!oracle) continue;
        EXPECT_NEAR(bf->cost, *oracle, 1e-9);
        EXPECT_NEAR(dj->cost, *oracle, 1e-9);
        EXPECT_NEAR(dvr->cost, *oracle, 1e-9);
      }
    }
  }
}

TEST_P(RoutingOracle, YenEnumerationMatchesBruteForceOrder) {
  Rng rng(GetParam() + 1000);
  const Graph g = random_graph(7, 0.5, rng);
  const NodeId src = 0;
  const NodeId dst = g.node_count() - 1;
  auto paths = all_paths(g, src, dst, CostMetric::InverseEta);
  std::sort(paths.begin(), paths.end(),
            [](const EnumeratedPath& a, const EnumeratedPath& b) {
              return a.cost < b.cost;
            });
  const std::size_t k = std::min<std::size_t>(paths.size(), 5);
  const auto yen = k_shortest_paths(g, src, dst, 5, CostMetric::InverseEta);
  ASSERT_EQ(yen.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    // Costs must match the brute-force ranking (ties permit different
    // paths of equal cost).
    EXPECT_NEAR(yen[i].cost, paths[i].cost, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingOracle,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/// A graph of `parts` disjoint random blocks plus a few isolated nodes,
/// with parallel copies of some edges and every edge added in a shuffled
/// order, so sweep positions are unrelated to node ids.
Graph shuffled_multigraph(Rng& rng) {
  const auto parts = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto isolated = static_cast<std::size_t>(rng.uniform_int(0, 2));
  const double p = rng.uniform(0.08, 0.35);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  NodeId first = 0;
  for (std::size_t part = 0; part < parts; ++part) {
    const auto size = static_cast<NodeId>(rng.uniform_int(1, 16));
    for (NodeId i = first; i < first + size; ++i) {
      for (NodeId j = i + 1; j < first + size; ++j) {
        if (rng.uniform(0.0, 1.0) >= p) continue;
        pairs.emplace_back(i, j);
        if (rng.uniform(0.0, 1.0) < 0.2) pairs.emplace_back(j, i);  // parallel
      }
    }
    first += size;
  }
  for (std::size_t i = pairs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(pairs[i - 1], pairs[j]);
  }
  Graph g;
  for (NodeId id = 0; id < first + isolated; ++id) g.add_node();
  for (const auto& [a, b] : pairs) g.add_edge(a, b, rng.uniform(0.1, 1.0));
  return g;
}

/// Predecessors of a plain FIFO breadth-first search in adjacency order:
/// the first neighbour to reach a node is its parent.
std::vector<std::optional<NodeId>> fifo_bfs_parents(const Graph& g,
                                                    NodeId src) {
  std::vector<std::optional<NodeId>> parent(g.node_count());
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeId> queue{src};
  seen[src] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const Adjacency& adj : g.neighbors(queue[head])) {
      if (seen[adj.to]) continue;
      seen[adj.to] = true;
      parent[adj.to] = queue[head];
      queue.push_back(adj.to);
    }
  }
  return parent;
}

/// How the hop-count trees of one graph exercised the parent rule.
struct TieTally {
  std::size_t tied_nodes = 0;    ///< nodes with >= 2 level-(d-1) neighbours
  std::size_t fifo_differs = 0;  ///< nodes where FIFO BFS picks another parent
};

/// hop_count_tree from every source of `g` must equal the hop-count
/// Bellman-Ford tree bit for bit: every cost and every predecessor.
void expect_hop_trees_match_bellman_ford(const Graph& g, TieTally& tally) {
  HopTreeScratch scratch;
  index_half_edges(g, scratch);
  ShortestPathTree hop;
  for (NodeId src = 0; src < g.node_count(); ++src) {
    SCOPED_TRACE("source " + std::to_string(src));
    hop_count_tree(g, src, scratch, hop);
    const ShortestPathTree bf = bellman_ford_tree(g, src, CostMetric::HopCount);
    ASSERT_EQ(hop.cost, bf.cost);
    ASSERT_EQ(hop.previous, bf.previous);
    const std::vector<std::optional<NodeId>> fifo = fifo_bfs_parents(g, src);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (fifo[v] != bf.previous[v]) ++tally.fifo_differs;
      std::vector<NodeId> below;
      for (const Adjacency& adj : g.neighbors(v)) {
        if (bf.cost[adj.to] + 1.0 == bf.cost[v]) below.push_back(adj.to);
      }
      std::sort(below.begin(), below.end());
      if (std::unique(below.begin(), below.end()) - below.begin() >= 2) {
        ++tally.tied_nodes;
      }
    }
  }
}

TEST(HopCountTree, MatchesBellmanFordOnShuffledMultigraphs) {
  Rng rng(20260);
  TieTally tally;
  std::size_t graphs_with_fifo_difference = 0;
  for (std::size_t trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Graph g = shuffled_multigraph(rng);
    const std::size_t before = tally.fifo_differs;
    expect_hop_trees_match_bellman_ford(g, tally);
    if (tally.fifo_differs > before) ++graphs_with_fifo_difference;
  }
  // The rule only shows on ties, and only matters where first discovery
  // would pick differently.
  EXPECT_GT(tally.tied_nodes, 0u);
  EXPECT_GT(graphs_with_fifo_difference, 0u);
}

TEST(HopCountTree, MatchesBellmanFordOnContactPlanSnapshots) {
  // Every LAN node of four 108-satellite contact-plan snapshots, spread
  // over the day.
  core::QntnConfig config;
  config.topology_mode = core::TopologyMode::ContactPlan;
  const sim::NetworkModel model = core::build_space_ground_model(config, 108);
  const core::Topology topology = core::make_topology(config, model);
  TieTally tally;
  for (const double t : {0.0, 21'630.0, 43'260.0, 64'890.0}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    const Graph g = topology.provider().graph_at(t);
    HopTreeScratch scratch;
    index_half_edges(g, scratch);
    ShortestPathTree hop;
    for (std::size_t lan = 0; lan < model.lan_count(); ++lan) {
      for (const NodeId src : model.lan_nodes(lan)) {
        hop_count_tree(g, src, scratch, hop);
        const ShortestPathTree bf =
            bellman_ford_tree(g, src, CostMetric::HopCount);
        ASSERT_EQ(hop.cost, bf.cost);
        ASSERT_EQ(hop.previous, bf.previous);
        for (NodeId v = 0; v < g.node_count(); ++v) {
          std::size_t below = 0;
          for (const Adjacency& adj : g.neighbors(v)) {
            if (bf.cost[adj.to] + 1.0 == bf.cost[v]) ++below;
          }
          if (below >= 2) ++tally.tied_nodes;
        }
      }
    }
  }
  EXPECT_GT(tally.tied_nodes, 0u);
}

TEST(HopCountTree, ReusedScratchFollowsTheGraph) {
  // One scratch and one output tree across graphs of different sizes: a
  // stale index or a longer previous tree must not leak through.
  Rng rng(77);
  HopTreeScratch scratch;
  ShortestPathTree hop;
  for (std::size_t trial = 0; trial < 40; ++trial) {
    const Graph g = shuffled_multigraph(rng);
    index_half_edges(g, scratch);
    for (NodeId src = 0; src < g.node_count(); ++src) {
      hop_count_tree(g, src, scratch, hop);
      const ShortestPathTree bf =
          bellman_ford_tree(g, src, CostMetric::HopCount);
      ASSERT_EQ(hop.cost, bf.cost);
      ASSERT_EQ(hop.previous, bf.previous);
    }
  }
  const Graph g = shuffled_multigraph(rng);
  Graph other = g;
  other.add_node();
  index_half_edges(other, scratch);
  EXPECT_THROW(hop_count_tree(g, 0, scratch, hop), PreconditionError);
}

}  // namespace
}  // namespace qntn::net
