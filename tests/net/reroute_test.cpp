// Differential oracle for the saturation reroute: reroute_around_saturated
// (reachability gate, then a masked tree) against the plain masked tree it
// replaced, on random graphs and random saturated sets.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"

namespace qntn::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The reroute as the traffic engine used to decide it: price every edge
/// touching a saturated node to +inf, build the tree, extract the route,
/// and reject a missing or infinite-cost one.
std::optional<Route> reference_reroute(const Graph& graph,
                                       const std::vector<double>& edge_costs,
                                       const std::vector<std::size_t>& load,
                                       std::size_t capacity, NodeId src,
                                       NodeId dst) {
  std::vector<double> masked = edge_costs;
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (load[edges[e].a] >= capacity || load[edges[e].b] >= capacity) {
      masked[e] = kInf;
    }
  }
  const ShortestPathTree tree = bellman_ford_tree(graph, src, masked);
  auto route = route_from_tree(graph, tree, src, dst);
  if (!route.has_value() || !std::isfinite(route->cost)) return std::nullopt;
  return route;
}

/// 16 nodes, the last two isolated; a direct 0-1 edge, random edges (some
/// with eta = 0) and parallel copies of a few of them.
Graph random_graph(Rng& rng) {
  constexpr std::size_t kNodes = 16;
  constexpr std::size_t kConnected = kNodes - 2;
  Graph g;
  for (std::size_t i = 0; i < kNodes; ++i) g.add_node();
  g.add_edge(0, 1, rng.uniform(0.05, 1.0));
  for (NodeId i = 0; i < kConnected; ++i) {
    for (NodeId j = i + 1; j < kConnected; ++j) {
      if ((i == 0 && j == 1) || rng.uniform(0.0, 1.0) >= 0.25) continue;
      const double eta =
          rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : rng.uniform(0.05, 1.0);
      g.add_edge(i, j, eta);
      if (rng.uniform(0.0, 1.0) < 0.2) g.add_edge(i, j, rng.uniform(0.0, 1.0));
    }
  }
  return g;
}

enum class Pricing { InverseEta, NegLogEta, HopCount, InverseEtaWithCuts };

/// Edge costs for a pricing; InverseEtaWithCuts also prices a random tenth
/// of the edges at +inf, so some reachable destinations have no finite route.
std::vector<double> price(const Graph& g, Pricing pricing, Rng& rng) {
  std::vector<double> costs;
  switch (pricing) {
    case Pricing::InverseEta:
    case Pricing::InverseEtaWithCuts:
      compute_edge_costs(g, CostMetric::InverseEta, costs);
      break;
    case Pricing::NegLogEta:
      compute_edge_costs(g, CostMetric::NegLogEta, costs);
      break;
    case Pricing::HopCount:
      compute_edge_costs(g, CostMetric::HopCount, costs);
      break;
  }
  if (pricing == Pricing::InverseEtaWithCuts) {
    for (double& c : costs) {
      if (rng.uniform(0.0, 1.0) < 0.1) c = kInf;
    }
  }
  return costs;
}

TEST(RerouteOracle, MatchesMaskedTreeOnRandomSaturatedSets) {
  constexpr std::size_t kCapacity = 2;
  std::size_t detours = 0;
  std::size_t waits = 0;
  RerouteScratch scratch;
  for (const std::uint64_t seed : {3u, 14u, 15u, 92u, 65u, 35u, 89u}) {
    Rng rng(seed);
    const Graph g = random_graph(rng);
    for (const Pricing pricing :
         {Pricing::InverseEta, Pricing::NegLogEta, Pricing::HopCount,
          Pricing::InverseEtaWithCuts}) {
      const std::vector<double> costs = price(g, pricing, rng);
      for (int set = 0; set < 250; ++set) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " pricing " +
                     std::to_string(static_cast<int>(pricing)) + " set " +
                     std::to_string(set));
        // Every third set routes over the direct 0-1 edge; the rest draw
        // any pair, isolated nodes and saturated endpoints included.
        NodeId src = 0;
        NodeId dst = 1;
        if (set % 3 != 0) {
          const auto last = static_cast<std::int64_t>(g.node_count()) - 1;
          src = static_cast<NodeId>(rng.uniform_int(0, last));
          do {
            dst = static_cast<NodeId>(rng.uniform_int(0, last));
          } while (dst == src);
        }
        const double saturation = rng.uniform(0.05, 0.6);
        std::vector<std::size_t> load(g.node_count());
        for (std::size_t& l : load) {
          l = rng.uniform(0.0, 1.0) < saturation
                  ? kCapacity + static_cast<std::size_t>(rng.uniform_int(0, 1))
                  : static_cast<std::size_t>(rng.uniform_int(0, 1));
        }
        const auto expected = reference_reroute(g, costs, load, kCapacity,
                                                src, dst);
        const auto actual = reroute_around_saturated(g, costs, load,
                                                     kCapacity, src, dst,
                                                     scratch);
        ASSERT_EQ(actual.has_value(), expected.has_value());
        if (!expected.has_value()) {
          ++waits;
          continue;
        }
        ++detours;
        EXPECT_EQ(actual->path, expected->path);
        EXPECT_EQ(actual->cost, expected->cost);
        EXPECT_EQ(actual->transmissivity, expected->transmissivity);
      }
    }
  }
  // Both branches ran: the gate settled some sets without a tree, and
  // some detours were built through it; every call took exactly one.
  EXPECT_GT(scratch.gated, 0u);
  EXPECT_GT(scratch.trees, 0u);
  EXPECT_GT(detours, 0u);
  EXPECT_GT(waits, scratch.gated);  // the +inf cuts fail after the gate
  EXPECT_EQ(scratch.gated + scratch.trees, detours + waits);
}

TEST(RerouteOracle, GateSettlesUnreachableWithoutATree) {
  // 0 - 1 - 2 with 1 saturated: 2 is cut off, and no tree is built.
  Graph g;
  for (int i = 0; i < 3; ++i) g.add_node();
  g.add_edge(0, 1, 0.9);
  g.add_edge(1, 2, 0.9);
  std::vector<double> costs;
  compute_edge_costs(g, CostMetric::InverseEta, costs);
  RerouteScratch scratch;
  EXPECT_FALSE(
      reroute_around_saturated(g, costs, {0, 1, 0}, 1, 0, 2, scratch));
  EXPECT_EQ(scratch.gated, 1u);
  EXPECT_EQ(scratch.trees, 0u);
  // With 1 free again the route is rebuilt through it.
  const auto route =
      reroute_around_saturated(g, costs, {0, 0, 0}, 1, 0, 2, scratch);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->path, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(scratch.trees, 1u);
}

}  // namespace
}  // namespace qntn::net
