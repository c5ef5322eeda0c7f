// Performance of the routing layer on QNTN-shaped graphs (31 ground nodes
// + n satellites): the paper's distance-vector Algorithm 1 vs single-source
// Bellman-Ford vs the breadth-first hop-count tree vs Dijkstra.

#include <cstdio>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "perf_harness.hpp"

namespace {

using namespace qntn;
using namespace qntn::net;

/// QNTN-like topology: three fiber cliques plus satellites linked to random
/// ground nodes (threshold-passing links only).
Graph qntn_like_graph(std::size_t satellites, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  const std::size_t lan_sizes[] = {5, 15, 11};
  std::size_t base = 0;
  for (const std::size_t size : lan_sizes) {
    for (std::size_t i = 0; i < size; ++i) g.add_node();
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        g.add_edge(base + i, base + j, 0.999);
      }
    }
    base += size;
  }
  for (std::size_t s = 0; s < satellites; ++s) {
    const NodeId sat = g.add_node();
    // Each visible satellite sees a handful of ground nodes.
    const auto links = static_cast<std::size_t>(rng.uniform_int(2, 8));
    for (std::size_t l = 0; l < links; ++l) {
      const auto ground = static_cast<NodeId>(rng.uniform_int(0, 30));
      g.add_edge(sat, ground, rng.uniform(0.7, 0.98));
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bench::PerfHarness harness("routing", argc, argv);
    const std::uint64_t iters = harness.smoke() ? 50 : 500;

    for (const std::size_t sats : {std::size_t{6}, std::size_t{36},
                                   std::size_t{108}}) {
      const Graph g = qntn_like_graph(sats, 1);
      harness.run_case("bellman_ford_tree_n" + std::to_string(sats), iters,
                       [&] {
                         for (std::uint64_t i = 0; i < iters; ++i) {
                           bench::do_not_optimize(
                               bellman_ford_tree(g, 0, CostMetric::InverseEta));
                         }
                       });
      // The hop-count tree by breadth-first search, into reused storage
      // over a half-edge index built once per graph, as the serving tree
      // table builds it.
      HopTreeScratch scratch;
      index_half_edges(g, scratch);
      ShortestPathTree hop_tree;
      harness.run_case("hop_count_tree_n" + std::to_string(sats), iters, [&] {
        for (std::uint64_t i = 0; i < iters; ++i) {
          hop_count_tree(g, 0, scratch, hop_tree);
          bench::do_not_optimize(hop_tree.cost.back());
        }
      });
      harness.run_case("dijkstra_n" + std::to_string(sats), iters, [&] {
        for (std::uint64_t i = 0; i < iters; ++i) {
          bench::do_not_optimize(
              dijkstra(g, 0, g.node_count() - 1, CostMetric::InverseEta));
        }
      });
    }

    for (const std::size_t sats : {std::size_t{6}, std::size_t{36}}) {
      const Graph g = qntn_like_graph(sats, 1);
      const std::uint64_t builds = harness.smoke() ? 2 : 10;
      harness.run_case("distance_vector_n" + std::to_string(sats), builds,
                       [&] {
                         for (std::uint64_t i = 0; i < builds; ++i) {
                           bench::do_not_optimize(DistanceVectorRouter(g));
                         }
                       });
    }

    {
      const Graph g = qntn_like_graph(108, 1);
      const std::uint64_t rounds = harness.smoke() ? 5 : 50;
      harness.run_case("serve_hundred_requests", rounds * 15, [&] {
        Rng rng(2);
        for (std::uint64_t r = 0; r < rounds; ++r) {
          // 100 requests from ~15 distinct sources, the Fig. 7 inner loop.
          for (int i = 0; i < 15; ++i) {
            const auto src = static_cast<NodeId>(rng.uniform_int(0, 30));
            bench::do_not_optimize(
                bellman_ford_tree(g, src, CostMetric::InverseEta));
          }
        }
      });
    }

    return harness.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
