#include "em/serving.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "net/graph.hpp"
#include "obs/registry.hpp"
#include "quantum/fidelity.hpp"
#include "sim/requests.hpp"
#include "sim/topology.hpp"

namespace qntn::em {
namespace {

using quantum::FidelityConvention;

/// One serve() call: its result with a copy of the manager's outcomes, so
/// calls can be compared after the manager has served again.
struct Served : EmServeResult {
  std::vector<EmOutcome> outcomes;
};

Served serve_recorded(EntanglementManager& manager, const net::Graph& graph,
                      const std::vector<EmRequest>& batch, std::size_t epoch) {
  return {manager.serve(graph, batch, epoch, FidelityConvention::Uhlmann),
          manager.outcomes()};
}

/// Two interior-disjoint routes between s and d: s-a-d and s-b-d.
struct Diamond {
  net::Graph graph;
  net::NodeId s, a, b, d;

  Diamond() {
    s = graph.add_node("s");
    a = graph.add_node("a");
    b = graph.add_node("b");
    d = graph.add_node("d");
    graph.add_edge(s, a, 0.9);
    graph.add_edge(a, d, 0.9);
    graph.add_edge(s, b, 0.8);
    graph.add_edge(b, d, 0.8);
  }
};

Served serve_diamond(std::size_t k_paths, std::size_t requests) {
  Diamond fixture;
  EmOptions options;
  options.k_paths = k_paths;
  options.node_capacity = 1;  // each relay can swap once per snapshot
  EntanglementManager manager(options);
  const std::vector<EmRequest> batch(requests,
                                     EmRequest{fixture.s, fixture.d});
  return serve_recorded(manager, fixture.graph, batch, 0);
}

TEST(EmServing, DirectLinkDeliversStoredPairFidelity) {
  net::Graph g;
  const auto s = g.add_node();
  const auto d = g.add_node();
  g.add_edge(s, d, 0.9);
  EmOptions options;
  EntanglementManager manager(options);
  const Served result = serve_recorded(manager, g, {EmRequest{s, d}}, 0);
  ASSERT_EQ(result.served, 1u);
  ASSERT_EQ(result.outcomes.size(), 1u);
  const EmOutcome& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.status, EmStatus::Served);
  EXPECT_EQ(outcome.hops, 1u);
  EXPECT_EQ(outcome.swaps, 0u);
  EXPECT_EQ(outcome.swap_depth, 0u);
  // One hop, youngest pair (age 0), no heralding: the delivered fidelity is
  // exactly the memory model's freshly-stored pair.
  EXPECT_DOUBLE_EQ(outcome.fidelity,
                   options.pool.memory.stored_pair_fidelity(0.9, 0.0));
  EXPECT_DOUBLE_EQ(outcome.latency, 0.0);
  EXPECT_FALSE(outcome.relay.has_value());
}

TEST(EmServing, IsolatedEndpointIsReported) {
  net::Graph g;
  const auto s = g.add_node();
  const auto d = g.add_node();
  g.add_node();  // rest of the graph still has links
  g.add_edge(s, d, 0.9);
  EmOptions options;
  EntanglementManager manager(options);
  const Served result =
      serve_recorded(manager, g, {EmRequest{s, net::NodeId{2}}}, 0);
  EXPECT_EQ(result.served, 0u);
  EXPECT_EQ(result.unserved_isolated, 1u);
  EXPECT_EQ(result.outcomes[0].status, EmStatus::Isolated);
}

TEST(EmServing, DisconnectedComponentsAreNoPath) {
  net::Graph g;
  const auto a = g.add_node();
  const auto b = g.add_node();
  const auto c = g.add_node();
  const auto d = g.add_node();
  g.add_edge(a, b, 0.9);
  g.add_edge(c, d, 0.9);
  EmOptions options;
  EntanglementManager manager(options);
  const Served result = serve_recorded(manager, g, {EmRequest{a, c}}, 0);
  EXPECT_EQ(result.unserved_no_path, 1u);
  EXPECT_EQ(result.outcomes[0].status, EmStatus::NoPath);
}

/// The acceptance pin: on a relay-congested snapshot, k-path load balancing
/// strictly improves the served fraction over single-path routing. With
/// node_capacity = 1 the first request saturates the cheapest route's relay;
/// k = 1 drops the second request, k = 2 spills it onto the disjoint
/// alternate.
TEST(EmServing, MultipathStrictlyImprovesServedFractionUnderCongestion) {
  const Served single = serve_diamond(/*k_paths=*/1, /*requests=*/2);
  EXPECT_EQ(single.served, 1u);
  EXPECT_EQ(single.unserved_congested, 1u);
  EXPECT_EQ(single.outcomes[1].status, EmStatus::Congested);
  EXPECT_EQ(single.spilled, 0u);

  const Served multi = serve_diamond(/*k_paths=*/2, /*requests=*/2);
  EXPECT_EQ(multi.served, 2u);
  EXPECT_EQ(multi.unserved_congested, 0u);
  EXPECT_EQ(multi.spilled, 1u);
  EXPECT_EQ(multi.outcomes[0].route_index, 0u);
  EXPECT_EQ(multi.outcomes[1].route_index, 1u);
  EXPECT_NE(multi.outcomes[0].relay, multi.outcomes[1].relay);

  EXPECT_GT(multi.served_fraction(), single.served_fraction());
}

TEST(EmServing, BufferExhaustionCongests) {
  net::Graph g;
  const auto s = g.add_node();
  const auto d = g.add_node();
  g.add_edge(s, d, 0.9);
  EmOptions options;
  options.pool.slots_per_node = 2;  // the edge buffers exactly two pairs
  options.node_capacity = 100;      // relays are not the bottleneck here
  EntanglementManager manager(options);
  const std::vector<EmRequest> batch(3, EmRequest{s, d});
  const Served result = serve_recorded(manager, g, batch, 0);
  EXPECT_EQ(result.served, 2u);
  EXPECT_EQ(result.unserved_congested, 1u);
  EXPECT_EQ(result.outcomes[2].status, EmStatus::Congested);
  EXPECT_EQ(result.pairs_consumed, 2u);
  // The second request consumed the older pair: strictly lower fidelity.
  EXPECT_LT(result.outcomes[1].fidelity, result.outcomes[0].fidelity);
}

TEST(EmServing, RepeatedServeIsByteIdentical) {
  Diamond fixture;
  EmOptions options;
  options.k_paths = 2;
  options.node_capacity = 1;
  options.purify.fidelity_slo = 0.8;
  EntanglementManager manager(options);
  const std::vector<EmRequest> batch{
      EmRequest{fixture.s, fixture.d}, EmRequest{fixture.s, fixture.d},
      EmRequest{fixture.a, fixture.b}};
  const Served first = serve_recorded(manager, fixture.graph, batch, 0);
  const Served second = serve_recorded(manager, fixture.graph, batch, 0);
  EXPECT_EQ(first.served, second.served);
  EXPECT_EQ(first.spilled, second.spilled);
  EXPECT_EQ(first.pairs_consumed, second.pairs_consumed);
  EXPECT_EQ(first.purification_rounds, second.purification_rounds);
  // Exact double equality is the point: serving must be a pure function of
  // (graph, batch, options) with no cross-call state.
  EXPECT_EQ(first.fidelity.mean(), second.fidelity.mean());
  EXPECT_EQ(first.latency.mean(), second.latency.mean());
  EXPECT_EQ(first.memory_occupancy, second.memory_occupancy);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].status, second.outcomes[i].status);
    EXPECT_EQ(first.outcomes[i].fidelity, second.outcomes[i].fidelity);
    EXPECT_EQ(first.outcomes[i].route_index, second.outcomes[i].route_index);
  }
}

TEST(EmServing, RelayRoutePaysHeraldingLatency) {
  Diamond fixture;
  EmOptions options;
  options.k_paths = 2;
  EntanglementManager manager(options);
  const Served result = serve_recorded(
      manager, fixture.graph, {EmRequest{fixture.s, fixture.d}}, 0);
  ASSERT_EQ(result.served, 1u);
  const EmOutcome& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.hops, 2u);
  EXPECT_EQ(outcome.swaps, 1u);
  EXPECT_EQ(outcome.swap_depth, 1u);
  EXPECT_DOUBLE_EQ(outcome.latency, options.swap.heralding_latency);
  EXPECT_TRUE(outcome.relay.has_value());
}

void expect_same_outcome(const EmOutcome& a, const EmOutcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.fidelity, b.fidelity);
  EXPECT_EQ(a.transmissivity, b.transmissivity);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.swap_depth, b.swap_depth);
  EXPECT_EQ(a.purification_rounds, b.purification_rounds);
  EXPECT_EQ(a.pairs_consumed, b.pairs_consumed);
  EXPECT_EQ(a.route_index, b.route_index);
  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.relay, b.relay);
}

/// Serve `batch` on `graph` with a manager that has served nothing before.
Served serve_fresh(const EmOptions& options, const net::Graph& graph,
                          const std::vector<EmRequest>& batch,
                          std::size_t epoch) {
  EntanglementManager manager(options);
  return serve_recorded(manager, graph, batch, epoch);
}

void expect_same_outcomes(const Served& got, const Served& want) {
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  for (std::size_t r = 0; r < got.outcomes.size(); ++r) {
    SCOPED_TRACE("request " + std::to_string(r));
    expect_same_outcome(got.outcomes[r], want.outcomes[r]);
  }
  EXPECT_EQ(got.memory_occupancy, want.memory_occupancy);
}

TEST(EmServing, LongLivedManagerMatchesFreshManagerPerSnapshot) {
  // A long-lived manager keeps its pool buffers, edge index, search trees
  // and route table across the snapshots of one epoch. Serving the
  // 108-satellite contact-plan day with one manager must match a fresh
  // manager per snapshot outcome for outcome, in the engine's access
  // pattern: one snapshot slot refreshed in place (same-epoch steps only
  // re-weight its edges), with a second batch served on the same manager
  // between some steps. A second long-lived manager serves every graph
  // under kNoEpoch, which turns all reuse off.
  core::QntnConfig config;
  config.topology_mode = core::TopologyMode::ContactPlan;
  const sim::NetworkModel model = core::build_space_ground_model(config, 108);
  const core::Topology topology = core::make_topology(config, model);
  Rng rng(config.request_seed);
  std::vector<EmRequest> batch;
  for (const sim::Request& request :
       sim::generate_requests(model, 300, rng)) {
    batch.push_back(EmRequest{request.source, request.destination});
  }
  // The second batch shares some pairs with the first and adds others.
  std::vector<EmRequest> other(batch.rbegin(), batch.rbegin() + 100);
  for (const sim::Request& request : sim::generate_requests(model, 50, rng)) {
    other.push_back(EmRequest{request.source, request.destination});
  }
  std::vector<double> times;
  for (const double base : {0.0, 21'600.0, 43'200.0, 64'800.0}) {
    for (int j = 0; j < 6; ++j) times.push_back(base + 30.0 * j);
  }

  for (const net::CostMetric metric :
       {net::CostMetric::HopCount, net::CostMetric::InverseEta}) {
    SCOPED_TRACE(metric == net::CostMetric::HopCount ? "hop_count"
                                                     : "inverse_eta");
    EmOptions options;
    options.metric = metric;
    options.pool.slots_per_node = 64;
    options.purify.fidelity_slo = 0.9;
    EntanglementManager lived(options);
    EntanglementManager blind(options);
    obs::Registry registry;
    const obs::ScopedRegistry scope(&registry);
    sim::TopologySnapshot snap;
    std::size_t served = 0;
    std::size_t previous_epoch = EntanglementManager::kNoEpoch;
    std::size_t run = 0;
    std::size_t longest_run = 0;
    std::set<std::size_t> epochs;
    for (std::size_t step = 0; step < times.size(); ++step) {
      topology.provider().snapshot_at(times[step], snap);
      SCOPED_TRACE("step " + std::to_string(step) + " epoch " +
                   std::to_string(snap.epoch));
      epochs.insert(snap.epoch);
      run = snap.epoch == previous_epoch ? run + 1 : 1;
      longest_run = std::max(longest_run, run);
      previous_epoch = snap.epoch;

      const Served want =
          serve_fresh(options, snap.graph, batch, snap.epoch);
      const Served got = serve_recorded(lived, snap.graph, batch, snap.epoch);
      expect_same_outcomes(got, want);
      if (step % 3 == 1) {
        expect_same_outcomes(
            serve_recorded(lived, snap.graph, other, snap.epoch),
            serve_fresh(options, snap.graph, other, snap.epoch));
      }
      expect_same_outcomes(
          serve_recorded(blind, snap.graph, batch,
                         EntanglementManager::kNoEpoch),
          want);
      served += got.served;
    }
    // The day crossed epochs and held one for at least three steps, and
    // outcomes had something to compare.
    EXPECT_GE(epochs.size(), 4u);
    EXPECT_GE(longest_run, 3u);
    EXPECT_GT(served, 0u);
    if (metric == net::CostMetric::HopCount) {
      EXPECT_GT(registry.counter("em.route_cache_hits"), 0u);
    } else {
      EXPECT_EQ(registry.counter("em.route_cache_hits"), 0u);
    }
  }
}

TEST(EmServing, ParallelEdgesRepickTheirBestEtaPerSnapshot) {
  // Two parallel s-a links swap which one has the better eta between two
  // snapshots of one epoch. The manager keeps its sorted edge index for
  // the epoch but must re-pick the best parallel edge per snapshot, both
  // for the eta it prices and for the buffer it consumes.
  net::Graph g;
  const auto s = g.add_node();
  const auto a = g.add_node();
  const auto d = g.add_node();
  g.add_edge(s, a, 0.9);
  g.add_edge(a, d, 0.8);
  g.add_edge(a, s, 0.5);  // parallel to edge 0, listed in reverse
  EmOptions options;
  options.pool.slots_per_node = 4;
  options.node_capacity = 100;
  const std::vector<EmRequest> batch(3, EmRequest{s, d});
  EntanglementManager lived(options);
  for (const double swap : {0.0, 1.0, 0.0}) {
    SCOPED_TRACE("swap " + std::to_string(swap));
    g.set_edge_transmissivity(0, swap > 0.0 ? 0.5 : 0.9);
    g.set_edge_transmissivity(2, swap > 0.0 ? 0.9 : 0.5);
    const Served got = serve_recorded(lived, g, batch, /*epoch=*/7);
    expect_same_outcomes(got, serve_fresh(options, g, batch, 7));
    ASSERT_GT(got.served, 0u);
    EXPECT_DOUBLE_EQ(got.outcomes[0].transmissivity, 0.9 * 0.8);
  }
}

TEST(EmServing, EtaDependentRoutesFollowTheSnapshotsEtas) {
  // Under InverseEta the cheapest route depends on the etas, which move
  // within an epoch: the two diamond relays swap places between snapshots
  // of one epoch, and the served relay must follow.
  Diamond fixture;
  EmOptions options;
  options.metric = net::CostMetric::InverseEta;
  options.k_paths = 1;
  const std::vector<EmRequest> batch{EmRequest{fixture.s, fixture.d}};
  EntanglementManager lived(options);
  for (const bool swapped : {false, true, false}) {
    SCOPED_TRACE(swapped ? "swapped" : "unswapped");
    for (std::size_t edge = 0; edge < 4; ++edge) {
      const bool via_a = edge < 2;
      fixture.graph.set_edge_transmissivity(edge,
                                            via_a != swapped ? 0.9 : 0.8);
    }
    const Served got =
        serve_recorded(lived, fixture.graph, batch, /*epoch=*/3);
    expect_same_outcomes(got, serve_fresh(options, fixture.graph, batch, 3));
    ASSERT_EQ(got.served, 1u);
    EXPECT_EQ(got.outcomes[0].relay, swapped ? fixture.b : fixture.a);
  }
}

TEST(EmServing, EpochStateIsReusedOnlyForTheSameEdges) {
  // An epoch id alone does not let the manager reuse its state: the same
  // diamond with its edges listed in another order, served under the same
  // epoch id, must be served as a fresh manager serves it.
  Diamond fixture;
  net::Graph reordered;
  for (int i = 0; i < 4; ++i) reordered.add_node();
  reordered.add_edge(fixture.s, fixture.b, 0.8);
  reordered.add_edge(fixture.b, fixture.d, 0.8);
  reordered.add_edge(fixture.s, fixture.a, 0.9);
  reordered.add_edge(fixture.a, fixture.d, 0.9);
  EmOptions options;
  options.k_paths = 2;
  options.node_capacity = 1;
  const std::vector<EmRequest> batch(3, EmRequest{fixture.s, fixture.d});
  EntanglementManager lived(options);
  for (const net::Graph* graph :
       {&fixture.graph, &reordered, &fixture.graph}) {
    const Served got = serve_recorded(lived, *graph, batch, /*epoch=*/5);
    expect_same_outcomes(got, serve_fresh(options, *graph, batch, 5));
    EXPECT_EQ(got.served, 2u);
  }
}

TEST(EmOptions, ValidateRejectsDegenerateParameters) {
  EmOptions options;
  options.k_paths = 0;
  EXPECT_THROW(options.validate(), Error);
  options = EmOptions{};
  options.node_capacity = 0;
  EXPECT_THROW(options.validate(), Error);
}

}  // namespace
}  // namespace qntn::em
