#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "obs/registry.hpp"
#include "sim/requests.hpp"
#include "sim/scenario.hpp"
#include "sim/serving_engine.hpp"
#include "sim/topology.hpp"

/// The reuse rule of the per-source tree table (SourceTreeTable::refresh,
/// DESIGN.md §13): trees survive a snapshot only inside one known epoch of
/// one provider under an eta-independent metric. The provider below has two
/// epochs whose graphs have the same edge count but different endpoints, so
/// a rule that ignored the epoch would route one epoch's graph with the
/// other epoch's trees, and an edge-count guard would not notice.

namespace qntn::sim {
namespace {

constexpr double kInterval = 600.0;
constexpr double kEpochLength = 1800.0;  // three steps per epoch
constexpr std::size_t kSteps = 12;       // epochs 0, 1, 0, 1

/// Test-only provider over the ground nodes of the three QNTN LANs. Each
/// LAN is a fiber chain, and two bridges join the LANs. Epochs 0 and 1
/// alternate every kEpochLength and bridge different node pairs; within an
/// epoch only the bridge etas move with t.
class TwoEpochTopology final : public TopologyProvider {
 public:
  explicit TwoEpochTopology(const NetworkModel& model) : model_(model) {}

  [[nodiscard]] net::Graph graph_at(double t) const override {
    net::Graph graph;
    for (std::size_t id = 0; id < model_.node_count(); ++id) {
      graph.add_node();
    }
    for (std::size_t lan = 0; lan < model_.lan_count(); ++lan) {
      const std::vector<net::NodeId>& nodes = model_.lan_nodes(lan);
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        graph.add_edge(nodes[i], nodes[i + 1], 0.99);
      }
    }
    const std::vector<net::NodeId>& l0 = model_.lan_nodes(0);
    const std::vector<net::NodeId>& l1 = model_.lan_nodes(1);
    const std::vector<net::NodeId>& l2 = model_.lan_nodes(2);
    const double eta = 0.7 + 0.2 * std::fmod(t, kEpochLength) / kEpochLength;
    if (epoch_of(t) == 0) {
      graph.add_edge(l0.front(), l1.front(), eta);
      graph.add_edge(l1.front(), l2.front(), eta);
    } else {
      graph.add_edge(l0.back(), l2.back(), eta);
      graph.add_edge(l2.front(), l1.back(), eta);
    }
    return graph;
  }

  [[nodiscard]] std::size_t epoch_of(double t) const override {
    return static_cast<std::size_t>(t / kEpochLength) % 2;
  }

  [[nodiscard]] std::size_t epoch_count() const override { return 2; }

  void snapshot_at(double t, TopologySnapshot& snap) const override {
    snap.graph = graph_at(t);
    snap.epoch = epoch_of(t);
    snap.owner = this;
    snap.dynamic_base = snap.graph.edge_count() - 2;
  }

 private:
  const NetworkModel& model_;
};

void expect_same_step(const ServeStepResult& got, const ServeStepResult& want) {
  EXPECT_EQ(got.outcome.issued, want.outcome.issued);
  EXPECT_EQ(got.outcome.served, want.outcome.served);
  EXPECT_EQ(got.outcome.no_path, want.outcome.no_path);
  EXPECT_EQ(got.outcome.isolated, want.outcome.isolated);
  EXPECT_EQ(got.outcome.rejected_capacity, want.outcome.rejected_capacity);
  EXPECT_EQ(got.outcome.dropped_deadline, want.outcome.dropped_deadline);
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestRecord& a = got.requests[i];
    const RequestRecord& b = want.requests[i];
    EXPECT_EQ(a.disposition, b.disposition);
    EXPECT_EQ(a.relay, b.relay);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.transmissivity, b.transmissivity);
    EXPECT_EQ(a.fidelity, b.fidelity);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.waiting, b.waiting);
  }
}

/// Sources that needed a tree at one step: those of requests that got past
/// the isolation check and had a path. Fixed-batch records leave their
/// endpoints 0, so single-shot sources come from the batch.
std::set<net::NodeId> tree_sources(const ServeStepResult& step,
                                   const std::vector<Request>& requests,
                                   ServingMode mode) {
  std::set<net::NodeId> sources;
  for (std::size_t i = 0; i < step.requests.size(); ++i) {
    const RequestRecord& rec = step.requests[i];
    if (rec.disposition == ServeDisposition::Isolated ||
        rec.disposition == ServeDisposition::NoPath) {
      continue;
    }
    sources.insert(mode == ServingMode::SingleShot ? requests[i].source
                                                   : rec.source);
  }
  return sources;
}

/// Serve kSteps steps of TwoEpochTopology under HopCount with one
/// long-lived engine and with a fresh engine per step; they must agree
/// record for record, and the long-lived one must have reused trees.
void expect_long_lived_engine_matches_fresh(ServingMode mode) {
  core::QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TwoEpochTopology topology(model);
  ASSERT_EQ(topology.graph_at(0.0).edge_count(),
            topology.graph_at(kEpochLength).edge_count());
  Rng rng(config.request_seed);
  const std::vector<Request> requests = generate_requests(model, 30, rng);
  ScenarioConfig sc = config.scenario_config();
  sc.serving_mode = mode;
  sc.metric = net::CostMetric::HopCount;
  sc.traffic.metric = net::CostMetric::HopCount;
  sc.traffic.arrival_rate = 0.02;
  sc.traffic.diurnal_amplitude = 0.0;

  obs::Registry lived_registry;
  obs::Registry fresh_registry;
  const auto lived = make_serving_engine(model, topology, requests, sc,
                                         kInterval, /*record_requests=*/true);
  std::vector<std::size_t> hops_before;
  std::size_t served = 0;
  std::size_t epoch_changes_with_new_hops = 0;
  // A fresh engine builds one tree per source with a path at every step;
  // the long-lived one, one per such source per run of same-epoch steps.
  std::size_t fresh_trees = 0;
  std::size_t lived_trees = 0;
  std::set<net::NodeId> epoch_sources;
  for (std::size_t step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double t = static_cast<double>(step) * kInterval;
    ServeStepResult got;
    {
      const obs::ScopedRegistry scope(&lived_registry);
      got = lived->serve_step(step, t);
    }
    ServeStepResult want;
    {
      const obs::ScopedRegistry scope(&fresh_registry);
      want = make_serving_engine(model, topology, requests, sc, kInterval,
                                 /*record_requests=*/true)
                 ->serve_step(step, t);
    }
    expect_same_step(got, want);
    served += got.outcome.served;
    const std::set<net::NodeId> sources = tree_sources(got, requests, mode);
    fresh_trees += sources.size();
    if (step > 0 && topology.epoch_of(t) != topology.epoch_of(t - kInterval)) {
      lived_trees += epoch_sources.size();
      epoch_sources.clear();
    }
    epoch_sources.insert(sources.begin(), sources.end());

    // The batch is routed differently in the two epochs, so trees carried
    // across the boundary would have shown.
    std::vector<std::size_t> hops;
    for (const RequestRecord& rec : got.requests) hops.push_back(rec.hops);
    const bool new_epoch =
        step > 0 && topology.epoch_of(t) != topology.epoch_of(t - kInterval);
    if (new_epoch && hops != hops_before) ++epoch_changes_with_new_hops;
    hops_before = hops;
  }
  EXPECT_GT(served, 0u);
  if (mode == ServingMode::SingleShot) {
    EXPECT_EQ(epoch_changes_with_new_hops, 3u);
  }
  lived_trees += epoch_sources.size();
  // Hop-count trees come from the breadth-first builder, and the
  // long-lived engine did reuse them inside each epoch.
  EXPECT_EQ(lived_registry.counter("net.bf_trees"), 0u);
  EXPECT_EQ(fresh_registry.counter("net.bf_trees"), 0u);
  EXPECT_EQ(lived_registry.counter("net.hop_trees"), lived_trees);
  EXPECT_EQ(fresh_registry.counter("net.hop_trees"), fresh_trees);
  EXPECT_GT(lived_trees, 0u);
  EXPECT_LT(lived_trees, fresh_trees);
}

TEST(SourceTreeTable, SingleShotEpochsWithEqualEdgeCountsDoNotShareTrees) {
  expect_long_lived_engine_matches_fresh(ServingMode::SingleShot);
}

TEST(SourceTreeTable, TrafficEpochsWithEqualEdgeCountsDoNotShareTrees) {
  expect_long_lived_engine_matches_fresh(ServingMode::Traffic);
}

TEST(SourceTreeTable, LinkedIsExactlyAFiniteTreeCost) {
  // 36 satellites on the contact plan: the graph at a step has relayed LAN
  // pairs, isolated satellites and satellite islands. Consecutive 30 s
  // steps often share an epoch, where refresh keeps the trees and the
  // component labels of the step before.
  core::QntnConfig config;
  config.topology_mode = core::TopologyMode::ContactPlan;
  const NetworkModel model = core::build_space_ground_model(config, 36);
  const core::Topology topology = core::make_topology(config, model);
  for (const net::CostMetric metric :
       {net::CostMetric::HopCount, net::CostMetric::InverseEta}) {
    SourceTreeTable trees(metric);
    TopologySnapshot snap;
    std::size_t same_epoch_refreshes = 0;
    std::size_t linked_pairs = 0;
    std::size_t unlinked_pairs = 0;
    std::size_t previous_epoch = TopologyProvider::kNoEpoch;
    for (std::size_t step = 0; step < 120; ++step) {
      const double t = 10'800.0 + 30.0 * static_cast<double>(step);
      trees.refresh(topology.provider(), t, snap);
      if (snap.epoch == previous_epoch) ++same_epoch_refreshes;
      previous_epoch = snap.epoch;
      const net::Graph& graph = snap.graph;
      for (net::NodeId a = 0; a < graph.node_count(); ++a) {
        const net::ShortestPathTree& tree = trees.tree(graph, a);
        for (net::NodeId b = 0; b < graph.node_count(); ++b) {
          const bool finite =
              tree.cost[b] < std::numeric_limits<double>::infinity();
          ASSERT_EQ(trees.linked(a, b), finite)
              << "t=" << t << " a=" << a << " b=" << b;
          ++(finite ? linked_pairs : unlinked_pairs);
        }
      }
    }
    EXPECT_GT(same_epoch_refreshes, 0u);
    EXPECT_GT(linked_pairs, 0u);
    EXPECT_GT(unlinked_pairs, 0u);
  }
}

}  // namespace
}  // namespace qntn::sim
