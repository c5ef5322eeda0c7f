// Performance of the entanglement-management serving path on QNTN-shaped
// graphs: pool rebuild, k-disjoint candidate search, and full batch serving
// with a warm vs cold per-epoch route cache. Gated against
// bench/baselines/BENCH_em_serving.json by `qntn_report bench-compare`.

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "em/serving.hpp"
#include "net/kpaths.hpp"
#include "perf_harness.hpp"
#include "quantum/fidelity.hpp"

namespace {

using namespace qntn;
using net::Graph;
using net::NodeId;

/// QNTN-like topology: three fiber cliques (31 ground nodes) plus
/// satellites linked to random ground nodes.
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
    const auto links = static_cast<std::size_t>(rng.uniform_int(2, 8));
    for (std::size_t l = 0; l < links; ++l) {
      const auto ground = static_cast<NodeId>(rng.uniform_int(0, 30));
      g.add_edge(sat, ground, rng.uniform(0.7, 0.98));
    }
  }
  return g;
}

std::vector<em::EmRequest> inter_lan_requests(std::size_t count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<em::EmRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Across the first two cliques, the congested inter-LAN pattern.
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 4));
    const auto dst = static_cast<NodeId>(rng.uniform_int(5, 19));
    requests.push_back({src, dst});
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bench::PerfHarness harness("em_serving", argc, argv);
    const auto convention = quantum::FidelityConvention::Uhlmann;

    em::EmOptions options;
    options.purify.fidelity_slo = 0.9;

    for (const std::size_t sats : {std::size_t{12}, std::size_t{108}}) {
      const Graph g = qntn_like_graph(sats, 1);
      const auto requests = inter_lan_requests(100, 2);
      const std::uint64_t iters = harness.smoke() ? 5 : 50;

      // Warm cache: one epoch, candidate routes computed once per pair.
      harness.run_case("serve_warm_cache_n" + std::to_string(sats), iters,
                       [&] {
                         em::EntanglementManager manager(options);
                         for (std::uint64_t i = 0; i < iters; ++i) {
                           bench::do_not_optimize(
                               manager.serve(g, requests, 0, convention));
                         }
                       });

      // Cold cache: a new epoch every serve, full k-disjoint search per
      // distinct pair each time (the epoch-churn worst case).
      harness.run_case("serve_cold_cache_n" + std::to_string(sats), iters,
                       [&] {
                         em::EntanglementManager manager(options);
                         for (std::uint64_t i = 0; i < iters; ++i) {
                           bench::do_not_optimize(
                               manager.serve(g, requests, i, convention));
                         }
                       });
    }

    {
      const Graph g = qntn_like_graph(108, 1);
      const std::uint64_t iters = harness.smoke() ? 50 : 500;
      harness.run_case("pool_rebuild_n108", iters, [&] {
        em::MemoryPool pool(options.pool);
        for (std::uint64_t i = 0; i < iters; ++i) {
          pool.rebuild(g);
          bench::do_not_optimize(pool.occupancy());
        }
      });
      harness.run_case("k_disjoint_paths_n108", iters, [&] {
        for (std::uint64_t i = 0; i < iters; ++i) {
          bench::do_not_optimize(
              net::k_disjoint_paths(g, 0, 20, 3, net::CostMetric::HopCount));
        }
      });
    }

    return harness.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
