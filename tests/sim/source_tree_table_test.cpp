#include <gtest/gtest.h>

#include <cmath>
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
  // The long-lived engine did reuse trees inside each epoch.
  EXPECT_GT(lived_registry.counter("net.bf_trees"), 0u);
  EXPECT_LT(lived_registry.counter("net.bf_trees"),
            fresh_registry.counter("net.bf_trees"));
}

TEST(SourceTreeTable, SingleShotEpochsWithEqualEdgeCountsDoNotShareTrees) {
  expect_long_lived_engine_matches_fresh(ServingMode::SingleShot);
}

TEST(SourceTreeTable, TrafficEpochsWithEqualEdgeCountsDoNotShareTrees) {
  expect_long_lived_engine_matches_fresh(ServingMode::Traffic);
}

}  // namespace
}  // namespace qntn::sim
