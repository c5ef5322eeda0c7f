#include "net/kpaths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "sim/topology.hpp"

namespace qntn::net {
namespace {

/// Differential oracle for DisjointPathFinder: the per-pair k-disjoint
/// search. Every candidate is a fresh early-exit Dijkstra with the accepted
/// interiors (and, after a direct route, the src-dst edge) masked out. For
/// src == dst it returns k copies of the one-node route; the finder returns
/// one.
namespace per_pair_oracle {

/// Dijkstra on `graph` with some nodes and edges masked out. Edges are
/// identified by their endpoints plus transmissivity (sufficient here:
/// masking removes all parallel edges of a spur, which only prunes
/// duplicates of the same path prefix).
std::optional<Route> masked_dijkstra(const Graph& graph, NodeId src, NodeId dst,
                                     CostMetric metric,
                                     const std::set<NodeId>& banned_nodes,
                                     const std::set<std::pair<NodeId, NodeId>>&
                                         banned_edges) {
  const std::size_t n = graph.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(n, kInf);
  std::vector<std::optional<NodeId>> previous(n);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  if (banned_nodes.count(src) != 0 || banned_nodes.count(dst) != 0) {
    return std::nullopt;
  }
  cost[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [c, u] = heap.top();
    heap.pop();
    if (c > cost[u]) continue;
    if (u == dst) break;
    for (const Adjacency& adj : graph.neighbors(u)) {
      if (banned_nodes.count(adj.to) != 0) continue;
      if (banned_edges.count(std::make_pair(std::min(u, adj.to),
                                            std::max(u, adj.to))) != 0) {
        continue;
      }
      const double nc = c + edge_cost(adj.transmissivity, metric);
      if (nc < cost[adj.to]) {
        cost[adj.to] = nc;
        previous[adj.to] = u;
        heap.emplace(nc, adj.to);
      }
    }
  }
  if (cost[dst] == kInf) return std::nullopt;
  Route out;
  NodeId cur = dst;
  out.path.push_back(cur);
  while (cur != src) {
    cur = *previous[cur];
    out.path.push_back(cur);
  }
  std::reverse(out.path.begin(), out.path.end());
  out.cost = cost[dst];
  out.transmissivity = 1.0;
  for (std::size_t i = 0; i + 1 < out.path.size(); ++i) {
    double best = 0.0;
    for (const Adjacency& adj : graph.neighbors(out.path[i])) {
      if (adj.to == out.path[i + 1]) best = std::max(best, adj.transmissivity);
    }
    out.transmissivity *= best;
  }
  return out;
}

std::vector<Route> k_disjoint_paths(const Graph& graph, NodeId src, NodeId dst,
                                    std::size_t k, CostMetric metric) {
  QNTN_REQUIRE(src < graph.node_count() && dst < graph.node_count(),
               "node out of range");
  QNTN_REQUIRE(k > 0, "k must be positive");
  std::vector<Route> accepted;
  std::set<NodeId> banned_nodes;
  std::set<std::pair<NodeId, NodeId>> banned_edges;
  while (accepted.size() < k) {
    const auto route =
        masked_dijkstra(graph, src, dst, metric, banned_nodes, banned_edges);
    if (!route) break;
    for (std::size_t i = 1; i + 1 < route->path.size(); ++i) {
      banned_nodes.insert(route->path[i]);
    }
    if (route->path.size() == 2) {
      // A direct route has no interior to ban; ban the edge itself so at
      // most one direct src-dst route is accepted (parallel edges are
      // duplicates of the same physical link here).
      banned_edges.insert({std::min(src, dst), std::max(src, dst)});
    }
    accepted.push_back(std::move(*route));
  }
  return accepted;
}

}  // namespace per_pair_oracle

/// Diamond: two node-disjoint 2-hop routes plus a direct lossy edge.
Graph diamond() {
  Graph g;
  const NodeId s = g.add_node("s");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId d = g.add_node("d");
  g.add_edge(s, a, 0.9);
  g.add_edge(a, d, 0.9);
  g.add_edge(s, b, 0.8);
  g.add_edge(b, d, 0.8);
  g.add_edge(s, d, 0.35);  // cost 2.86, strictly worse than both relays
  return g;
}

TEST(KPaths, FirstPathIsTheShortest) {
  const Graph g = diamond();
  const auto paths = k_shortest_paths(g, 0, 3, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path, (std::vector<NodeId>{0, 1, 3}));
  const auto oracle = dijkstra(g, 0, 3);
  EXPECT_NEAR(paths[0].cost, oracle->cost, 1e-12);
}

TEST(KPaths, EnumeratesAllThreeDiamondRoutes) {
  const auto paths = k_shortest_paths(diamond(), 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);  // only three loopless routes exist
  EXPECT_EQ(paths[0].path, (std::vector<NodeId>{0, 1, 3}));  // via a
  EXPECT_EQ(paths[1].path, (std::vector<NodeId>{0, 2, 3}));  // via b
  EXPECT_EQ(paths[2].path, (std::vector<NodeId>{0, 3}));     // direct
  // Ordered by cost and loopless.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-12);
  }
}

TEST(KPaths, UnreachableGivesEmpty) {
  Graph g;
  g.add_node();
  g.add_node();
  EXPECT_TRUE(k_shortest_paths(g, 0, 1, 3).empty());
  EXPECT_THROW((void)k_shortest_paths(g, 0, 1, 0), PreconditionError);
}

TEST(KPaths, PathsAreLoopless) {
  Rng rng(5);
  Graph g;
  for (int i = 0; i < 12; ++i) g.add_node();
  for (NodeId i = 0; i < 12; ++i) {
    for (NodeId j = i + 1; j < 12; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.35) {
        g.add_edge(i, j, rng.uniform(0.3, 1.0));
      }
    }
  }
  const auto paths = k_shortest_paths(g, 0, 11, 8);
  for (const Route& route : paths) {
    std::set<NodeId> seen(route.path.begin(), route.path.end());
    EXPECT_EQ(seen.size(), route.path.size()) << "loop in path";
    EXPECT_EQ(route.path.front(), 0u);
    EXPECT_EQ(route.path.back(), 11u);
  }
  // Distinct paths.
  for (std::size_t a = 0; a < paths.size(); ++a) {
    for (std::size_t b = a + 1; b < paths.size(); ++b) {
      EXPECT_NE(paths[a].path, paths[b].path);
    }
  }
}

TEST(KPaths, CostsAreNonDecreasing) {
  Rng rng(9);
  Graph g;
  for (int i = 0; i < 10; ++i) g.add_node();
  for (NodeId i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1, 0.9);
  g.add_edge(0, 9, 0.3);
  g.add_edge(0, 5, 0.8);
  g.add_edge(5, 9, 0.8);
  const auto paths = k_shortest_paths(g, 0, 9, 6);
  ASSERT_GE(paths.size(), 3u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-12);
  }
}

TEST(KDisjointPaths, DiamondYieldsBothRelaysThenDirect) {
  // k beyond what the graph offers is not an error: the diamond has exactly
  // two interior-disjoint relay routes plus one direct edge.
  const auto paths = k_disjoint_paths(diamond(), 0, 3, 10);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].path, (std::vector<NodeId>{0, 1, 3}));  // via a
  EXPECT_EQ(paths[1].path, (std::vector<NodeId>{0, 2, 3}));  // via b
  EXPECT_EQ(paths[2].path, (std::vector<NodeId>{0, 3}));     // direct
  EXPECT_DOUBLE_EQ(path_diversity(paths), 1.0);
}

TEST(KDisjointPaths, InteriorsArePairwiseDisjointOnRandomGraphs) {
  for (const std::uint64_t seed : {3u, 7u, 21u}) {
    Rng rng(seed);
    Graph g;
    for (int i = 0; i < 14; ++i) g.add_node();
    for (NodeId i = 0; i < 14; ++i) {
      for (NodeId j = i + 1; j < 14; ++j) {
        if (rng.uniform(0.0, 1.0) < 0.4) {
          g.add_edge(i, j, rng.uniform(0.3, 1.0));
        }
      }
    }
    const auto paths = k_disjoint_paths(g, 0, 13, 6);
    for (std::size_t a = 0; a < paths.size(); ++a) {
      const std::set<NodeId> ia(paths[a].path.begin() + 1,
                                paths[a].path.end() - 1);
      for (std::size_t b = a + 1; b < paths.size(); ++b) {
        for (std::size_t i = 1; i + 1 < paths[b].path.size(); ++i) {
          EXPECT_EQ(ia.count(paths[b].path[i]), 0u)
              << "seed " << seed << ": routes " << a << " and " << b
              << " share relay " << paths[b].path[i];
        }
      }
    }
    if (!paths.empty()) {
      EXPECT_DOUBLE_EQ(path_diversity(paths), 1.0);
    }
  }
}

TEST(KDisjointPaths, CostsAreNonDecreasing) {
  Rng rng(11);
  Graph g;
  for (int i = 0; i < 12; ++i) g.add_node();
  for (NodeId i = 0; i < 12; ++i) {
    for (NodeId j = i + 1; j < 12; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        g.add_edge(i, j, rng.uniform(0.3, 1.0));
      }
    }
  }
  const auto paths = k_disjoint_paths(g, 0, 11, 8);
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-12);
  }
}

TEST(KDisjointPaths, SingleChainYieldsOneRoute) {
  // Banning the chain's interior after the first route leaves no
  // alternative: k = 5 gracefully returns one.
  Graph g;
  g.add_node();
  g.add_node();
  g.add_node();
  g.add_edge(0, 1, 0.9);
  g.add_edge(1, 2, 0.9);
  const auto paths = k_disjoint_paths(g, 0, 2, 5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path, (std::vector<NodeId>{0, 1, 2}));
}

TEST(KDisjointPaths, UnreachableGivesEmpty) {
  Graph g;
  g.add_node();
  g.add_node();
  EXPECT_TRUE(k_disjoint_paths(g, 0, 1, 3).empty());
  EXPECT_THROW((void)k_disjoint_paths(g, 0, 1, 0), PreconditionError);
}

TEST(KDisjointPaths, SourceEqualsDestinationGivesOneTrivialRoute) {
  const Graph g = diamond();
  const std::vector<NodeId> trivial{2};
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    const auto disjoint = k_disjoint_paths(g, 2, 2, k);
    ASSERT_EQ(disjoint.size(), 1u) << "k = " << k;
    EXPECT_EQ(disjoint[0].path, trivial);
    EXPECT_EQ(disjoint[0].cost, 0.0);
    EXPECT_EQ(disjoint[0].transmissivity, 1.0);
    const auto shortest = k_shortest_paths(g, 2, 2, k);
    ASSERT_EQ(shortest.size(), 1u) << "k = " << k;
    EXPECT_EQ(shortest[0].path, trivial);
  }
  DisjointPathFinder finder;
  finder.reset(g, CostMetric::HopCount);
  std::vector<Route> routes;
  finder.find(2, 2, 3, routes);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].path, trivial);
}

TEST(DisjointPathFinder, RejectsBadQueries) {
  DisjointPathFinder finder;
  std::vector<Route> routes;
  EXPECT_THROW(finder.find(0, 1, 2, routes), PreconditionError);
  const Graph g = diamond();
  finder.reset(g, CostMetric::InverseEta);
  EXPECT_THROW(finder.find(0, 4, 2, routes), PreconditionError);
  EXPECT_THROW(finder.find(0, 3, 0, routes), PreconditionError);
}

/// Random graph with lossy, lossless (eta = 1, a zero NegLogEta cost) and
/// dead (eta = 0) links, plus parallel copies of some links so the
/// max-over-parallel-edges transmissivity rule matters.
Graph random_graph(Rng& rng, std::size_t nodes, double density) {
  Graph g;
  for (std::size_t i = 0; i < nodes; ++i) g.add_node();
  const auto eta = [&rng] {
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.1) return 1.0;
    if (pick < 0.15) return 0.0;
    return rng.uniform(0.2, 1.0);
  };
  for (NodeId i = 0; i < nodes; ++i) {
    for (NodeId j = i + 1; j < nodes; ++j) {
      if (rng.uniform(0.0, 1.0) >= density) continue;
      g.add_edge(i, j, eta());
      if (rng.uniform(0.0, 1.0) < 0.15) g.add_edge(j, i, eta());
    }
  }
  return g;
}

TEST(DisjointPathFinder, MatchesPerPairOracleOnEveryOrderedPair) {
  // One finder serves every ordered pair of each graph, in a shuffled
  // order, so trees are shared across destinations and resumed part-grown;
  // reset() between graphs. Paths must be equal and costs and
  // transmissivities equal to the bit.
  DisjointPathFinder finder;
  std::size_t fallbacks = 0;
  std::size_t masked_candidates = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    const std::size_t nodes = 8 + 3 * static_cast<std::size_t>(seed);
    const Graph g = random_graph(rng, nodes, seed % 2 == 0 ? 0.25 : 0.45);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId s = 0; s < nodes; ++s) {
      for (NodeId d = 0; d < nodes; ++d) pairs.emplace_back(s, d);
    }
    for (std::size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1], pairs[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i - 1)))]);
    }
    for (const CostMetric metric :
         {CostMetric::InverseEta, CostMetric::NegLogEta,
          CostMetric::HopCount}) {
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
        finder.reset(g, metric);
        std::vector<Route> got;
        for (const auto& [s, d] : pairs) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " metric " +
                       std::to_string(static_cast<int>(metric)) + " k " +
                       std::to_string(k) + " pair " + std::to_string(s) +
                       "->" + std::to_string(d));
          std::vector<Route> want =
              per_pair_oracle::k_disjoint_paths(g, s, d, k, metric);
          if (s == d) want.resize(1);  // the oracle repeats [s] k times
          finder.find(s, d, k, got);
          ASSERT_EQ(got.size(), want.size());
          bool direct_seen = false;
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].path, want[i].path) << "candidate " << i;
            EXPECT_EQ(got[i].cost, want[i].cost) << "candidate " << i;
            EXPECT_EQ(got[i].transmissivity, want[i].transmissivity)
                << "candidate " << i;
            if (direct_seen) ++fallbacks;
            if (i > 0 && !direct_seen) ++masked_candidates;
            direct_seen = direct_seen || want[i].path.size() == 2;
          }
        }
      }
    }
  }
  // Both the masked trees and the per-pair fallback were exercised.
  EXPECT_GT(masked_candidates, 0u);
  EXPECT_GT(fallbacks, 0u);
}

/// w x h grid of 4-neighbour links with shuffled node ids, links added in a
/// shuffled order and some doubled by a parallel link: most nodes have two
/// equally short predecessors, and BFS discovery order is not id order.
Graph lattice(Rng& rng, std::size_t w, std::size_t h) {
  const std::size_t n = w * h;
  std::vector<NodeId> id(n);
  for (std::size_t i = 0; i < n; ++i) id[i] = i;
  const auto shuffle = [&rng](auto& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i - 1)))]);
    }
  };
  shuffle(id);
  std::vector<std::pair<NodeId, NodeId>> links;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) links.emplace_back(id[y * w + x], id[y * w + x + 1]);
      if (y + 1 < h) links.emplace_back(id[y * w + x], id[(y + 1) * w + x]);
    }
  }
  shuffle(links);
  Graph g;
  for (std::size_t i = 0; i < n; ++i) g.add_node();
  for (const auto& [a, b] : links) {
    g.add_edge(a, b, rng.uniform(0.2, 1.0));
    if (rng.uniform(0.0, 1.0) < 0.1) g.add_edge(b, a, rng.uniform(0.2, 1.0));
  }
  return g;
}

/// How often hop-count ties matter, over every source in `sources`: nodes
/// with at least two neighbours one hop closer to the source (`tied`), and
/// among them those whose smallest-id such neighbour (the heap's and the
/// id-sorted levels' predecessor) is not the one a plain FIFO BFS would
/// record (`fifo_differs`).
struct HopTies {
  std::size_t tied = 0;
  std::size_t fifo_differs = 0;
};

HopTies hop_ties(const Graph& g, const std::vector<NodeId>& sources) {
  constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
  HopTies ties;
  for (const NodeId src : sources) {
    std::vector<std::size_t> level(g.node_count(), kUnreached);
    std::vector<NodeId> fifo_parent(g.node_count(), src);
    std::vector<NodeId> queue{src};
    level[src] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const Adjacency& adj : g.neighbors(u)) {
        if (level[adj.to] != kUnreached) continue;
        level[adj.to] = level[u] + 1;
        fifo_parent[adj.to] = u;
        queue.push_back(adj.to);
      }
    }
    for (const NodeId v : queue) {
      if (v == src) continue;
      std::set<NodeId> closer;
      for (const Adjacency& adj : g.neighbors(v)) {
        if (level[adj.to] + 1 == level[v]) closer.insert(adj.to);
      }
      if (closer.size() < 2) continue;
      ++ties.tied;
      if (*closer.begin() != fifo_parent[v]) ++ties.fifo_differs;
    }
  }
  return ties;
}

/// Every (src, dst) of `pairs` through one finder under HopCount, against
/// the per-pair oracle: paths equal, costs and transmissivities to the bit.
void expect_hop_count_matches_oracle(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    std::size_t k) {
  DisjointPathFinder finder;
  finder.reset(g, CostMetric::HopCount);
  std::vector<Route> got;
  for (const auto& [s, d] : pairs) {
    SCOPED_TRACE("k " + std::to_string(k) + " pair " + std::to_string(s) +
                 "->" + std::to_string(d));
    std::vector<Route> want =
        per_pair_oracle::k_disjoint_paths(g, s, d, k, CostMetric::HopCount);
    if (s == d) want.resize(1);
    finder.find(s, d, k, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].path, want[i].path) << "candidate " << i;
      EXPECT_EQ(got[i].cost, want[i].cost) << "candidate " << i;
      EXPECT_EQ(got[i].transmissivity, want[i].transmissivity)
          << "candidate " << i;
    }
  }
}

TEST(DisjointPathFinder, HopCountLevelsMatchPerPairOracleOnLattices) {
  // Lattices are all ties: the id-sorted levels must pick the heap's
  // predecessor wherever two are equally short, and a FIFO without the
  // sort would pick another one somewhere.
  HopTies ties;
  for (const auto& [seed, w, h] :
       {std::tuple{1u, 6u, 7u}, std::tuple{2u, 8u, 8u},
        std::tuple{3u, 5u, 12u}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Graph g = lattice(rng, w, h);
    std::vector<NodeId> nodes(g.node_count());
    for (NodeId v = 0; v < nodes.size(); ++v) nodes[v] = v;
    const HopTies found = hop_ties(g, nodes);
    ties.tied += found.tied;
    ties.fifo_differs += found.fifo_differs;
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const NodeId s : nodes) {
      for (const NodeId d : nodes) pairs.emplace_back(s, d);
    }
    for (std::size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1], pairs[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i - 1)))]);
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
      expect_hop_count_matches_oracle(g, pairs, k);
    }
  }
  EXPECT_GT(ties.tied, 0u);
  EXPECT_GT(ties.fifo_differs, 0u);
}

TEST(DisjointPathFinder, HopCountLevelsMatchPerPairOracleOnContactPlanDay) {
  // The em serving workload's graphs: every LAN-node pair of four
  // 108-satellite contact-plan snapshots, at the em default k = 3.
  core::QntnConfig config;
  config.topology_mode = core::TopologyMode::ContactPlan;
  const sim::NetworkModel model = core::build_space_ground_model(config, 108);
  const core::Topology topology = core::make_topology(config, model);
  std::vector<NodeId> lan_nodes;
  for (std::size_t lan = 0; lan < model.lan_count(); ++lan) {
    for (const NodeId v : model.lan_nodes(lan)) lan_nodes.push_back(v);
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId s : lan_nodes) {
    for (const NodeId d : lan_nodes) {
      if (s != d) pairs.emplace_back(s, d);
    }
  }
  std::size_t tied = 0;
  for (const double t : {0.0, 21'600.0, 43'200.0, 64'800.0}) {
    SCOPED_TRACE("t " + std::to_string(t));
    sim::TopologySnapshot snap;
    topology.provider().snapshot_at(t, snap);
    tied += hop_ties(snap.graph, lan_nodes).tied;
    expect_hop_count_matches_oracle(snap.graph, pairs, 3);
  }
  EXPECT_GT(tied, 0u);
}

TEST(PathDiversity, DisjointAndOverlappingSets) {
  const auto paths = k_shortest_paths(diamond(), 0, 3, 3);
  ASSERT_EQ(paths.size(), 3u);
  // Via-a and via-b interiors are disjoint; the direct path has no
  // interior. Full diversity.
  EXPECT_DOUBLE_EQ(path_diversity(paths), 1.0);
  // Duplicate the same route: zero diversity.
  std::vector<Route> same{paths[0], paths[0]};
  EXPECT_DOUBLE_EQ(path_diversity(same), 0.0);
  // Single route: trivially diverse.
  EXPECT_DOUBLE_EQ(path_diversity({paths[0]}), 1.0);
}

}  // namespace
}  // namespace qntn::net
