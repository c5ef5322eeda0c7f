#include "em/serving.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "net/graph.hpp"
#include "quantum/fidelity.hpp"
#include "sim/requests.hpp"
#include "sim/topology.hpp"

namespace qntn::em {
namespace {

using quantum::FidelityConvention;

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

EmServeResult serve_diamond(std::size_t k_paths, std::size_t requests) {
  Diamond fixture;
  EmOptions options;
  options.k_paths = k_paths;
  options.node_capacity = 1;  // each relay can swap once per snapshot
  EntanglementManager manager(options);
  const std::vector<EmRequest> batch(requests,
                                     EmRequest{fixture.s, fixture.d});
  return manager.serve(fixture.graph, batch, 0,
                       FidelityConvention::Uhlmann, true);
}

TEST(EmServing, DirectLinkDeliversStoredPairFidelity) {
  net::Graph g;
  const auto s = g.add_node();
  const auto d = g.add_node();
  g.add_edge(s, d, 0.9);
  EmOptions options;
  EntanglementManager manager(options);
  const EmServeResult result = manager.serve(
      g, {EmRequest{s, d}}, 0, FidelityConvention::Uhlmann, true);
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
  const EmServeResult result =
      manager.serve(g, {EmRequest{s, net::NodeId{2}}}, 0,
                    FidelityConvention::Uhlmann, true);
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
  const EmServeResult result = manager.serve(
      g, {EmRequest{a, c}}, 0, FidelityConvention::Uhlmann, true);
  EXPECT_EQ(result.unserved_no_path, 1u);
  EXPECT_EQ(result.outcomes[0].status, EmStatus::NoPath);
}

/// The acceptance pin: on a relay-congested snapshot, k-path load balancing
/// strictly improves the served fraction over single-path routing. With
/// node_capacity = 1 the first request saturates the cheapest route's relay;
/// k = 1 drops the second request, k = 2 spills it onto the disjoint
/// alternate.
TEST(EmServing, MultipathStrictlyImprovesServedFractionUnderCongestion) {
  const EmServeResult single = serve_diamond(/*k_paths=*/1, /*requests=*/2);
  EXPECT_EQ(single.served, 1u);
  EXPECT_EQ(single.unserved_congested, 1u);
  EXPECT_EQ(single.outcomes[1].status, EmStatus::Congested);
  EXPECT_EQ(single.spilled, 0u);

  const EmServeResult multi = serve_diamond(/*k_paths=*/2, /*requests=*/2);
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
  const EmServeResult result =
      manager.serve(g, batch, 0, FidelityConvention::Uhlmann, true);
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
  const EmServeResult first = manager.serve(
      fixture.graph, batch, 0, FidelityConvention::Uhlmann, true);
  const EmServeResult second = manager.serve(
      fixture.graph, batch, 0, FidelityConvention::Uhlmann, true);
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
  const EmServeResult result =
      manager.serve(fixture.graph, {EmRequest{fixture.s, fixture.d}}, 0,
                    FidelityConvention::Uhlmann, true);
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

TEST(EmServing, LongLivedManagerMatchesFreshManagerPerSnapshot) {
  // The manager's shared search trees belong to one serve() call. Serving
  // snapshots of the 108-satellite contact-plan day from several epochs
  // (pairs 30 s apart share an epoch, so the HopCount route cache is hit
  // too) with one long-lived manager must match a fresh manager per
  // snapshot outcome for outcome: a tree that outlived its graph would
  // answer a later snapshot with stale routes.
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
  std::vector<sim::TopologySnapshot> snapshots;
  std::set<std::size_t> epochs;
  for (const double t : {0.0, 30.0, 21'600.0, 21'630.0, 43'200.0, 64'800.0,
                         64'830.0}) {
    topology.provider().snapshot_at(t, snapshots.emplace_back());
    epochs.insert(snapshots.back().epoch);
  }
  ASSERT_GE(epochs.size(), 4u);

  for (const net::CostMetric metric :
       {net::CostMetric::HopCount, net::CostMetric::InverseEta}) {
    SCOPED_TRACE(metric == net::CostMetric::HopCount ? "hop_count"
                                                     : "inverse_eta");
    EmOptions options;
    options.metric = metric;
    options.pool.slots_per_node = 64;
    options.purify.fidelity_slo = 0.9;
    EntanglementManager long_lived(options);
    std::size_t served = 0;
    for (const sim::TopologySnapshot& snap : snapshots) {
      const EmServeResult lived =
          long_lived.serve(snap.graph, batch, snap.epoch,
                           FidelityConvention::Uhlmann, true);
      EntanglementManager fresh_manager(options);
      const EmServeResult fresh =
          fresh_manager.serve(snap.graph, batch, snap.epoch,
                              FidelityConvention::Uhlmann, true);
      ASSERT_EQ(lived.outcomes.size(), fresh.outcomes.size());
      for (std::size_t r = 0; r < lived.outcomes.size(); ++r) {
        SCOPED_TRACE("epoch " + std::to_string(snap.epoch) + " request " +
                     std::to_string(r));
        expect_same_outcome(lived.outcomes[r], fresh.outcomes[r]);
      }
      served += lived.served;
    }
    // Outcomes must have something to compare.
    EXPECT_GT(served, 0u);
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
