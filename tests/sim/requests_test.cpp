#include "sim/requests.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"

namespace qntn::sim {
namespace {

using core::QntnConfig;

TEST(Requests, EndpointsAlwaysInDistinctLans) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  Rng rng(4);
  const auto requests = generate_requests(model, 500, rng);
  ASSERT_EQ(requests.size(), 500u);
  for (const Request& req : requests) {
    const Node& src = model.node(req.source);
    const Node& dst = model.node(req.destination);
    EXPECT_EQ(src.kind, NodeKind::Ground);
    EXPECT_EQ(dst.kind, NodeKind::Ground);
    EXPECT_NE(src.lan, dst.lan);
  }
}

TEST(Requests, DeterministicForFixedSeed) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  Rng a(7), b(7);
  const auto ra = generate_requests(model, 50, a);
  const auto rb = generate_requests(model, 50, b);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].source, rb[i].source);
    EXPECT_EQ(ra[i].destination, rb[i].destination);
  }
}

TEST(Requests, AllLanPairsEventuallySampled) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  Rng rng(11);
  const auto requests = generate_requests(model, 300, rng);
  bool pair01 = false, pair02 = false, pair12 = false;
  for (const Request& req : requests) {
    const std::size_t a = model.node(req.source).lan;
    const std::size_t b = model.node(req.destination).lan;
    if ((a == 0 && b == 1) || (a == 1 && b == 0)) pair01 = true;
    if ((a == 0 && b == 2) || (a == 2 && b == 0)) pair02 = true;
    if ((a == 1 && b == 2) || (a == 2 && b == 1)) pair12 = true;
  }
  EXPECT_TRUE(pair01);
  EXPECT_TRUE(pair02);
  EXPECT_TRUE(pair12);
}

TEST(Requests, RequiresTwoLans) {
  const QntnConfig config;
  NetworkModel model;
  model.add_lan("only", {geo::Geodetic::from_degrees(36.0, -85.0, 0.0)},
                config.ground_terminal());
  Rng rng(1);
  EXPECT_THROW((void)generate_requests(model, 10, rng), PreconditionError);
}

TEST(Serve, DisconnectedGraphServesNothing) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  Rng rng(3);
  const auto requests = generate_requests(model, 40, rng);
  const ServeStepResult result = serve_requests(topology.graph_at(0.0), requests);
  EXPECT_EQ(result.outcome.issued, 40u);
  EXPECT_EQ(result.outcome.served, 0u);
  EXPECT_DOUBLE_EQ(result.outcome.served_fraction(), 0.0);
  EXPECT_EQ(result.outcome.fidelity.count(), 0u);
}

TEST(Serve, AirGroundServesEverythingWithHighFidelity) {
  const QntnConfig config;
  const NetworkModel model = core::build_air_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  Rng rng(5);
  const auto requests = generate_requests(model, 60, rng);
  const ServeStepResult result = serve_requests(topology.graph_at(0.0), requests);
  EXPECT_EQ(result.outcome.served, 60u);
  EXPECT_DOUBLE_EQ(result.outcome.served_fraction(), 1.0);
  // All QNTN air-ground routes relay through the HAP: >= 2 FSO hops.
  EXPECT_GE(result.outcome.hops.min(), 2.0);
  EXPECT_GT(result.outcome.fidelity.mean(), 0.9);
  EXPECT_LE(result.outcome.fidelity.max(), 1.0);
  // Fidelity follows the closed form of the recorded transmissivity.
  EXPECT_NEAR(result.outcome.fidelity.max(),
              quantum::bell_fidelity_after_damping(
                  result.outcome.transmissivity.max(),
                  quantum::FidelityConvention::Uhlmann),
              1e-12);
}

TEST(Serve, EmptyRequestListIsHarmless) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const ServeStepResult result = serve_requests(topology.graph_at(0.0), {});
  EXPECT_EQ(result.outcome.issued, 0u);
  EXPECT_DOUBLE_EQ(result.outcome.served_fraction(), 0.0);
}

TEST(Serve, JozsaConventionLowersReportedFidelity) {
  const QntnConfig config;
  const NetworkModel model = core::build_air_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  Rng rng(5);
  const auto requests = generate_requests(model, 30, rng);
  const net::Graph graph = topology.graph_at(0.0);
  const ServeStepResult uhlmann = serve_requests(
      graph, requests, net::CostMetric::InverseEta,
      quantum::FidelityConvention::Uhlmann);
  const ServeStepResult jozsa = serve_requests(
      graph, requests, net::CostMetric::InverseEta,
      quantum::FidelityConvention::Jozsa);
  EXPECT_LT(jozsa.outcome.fidelity.mean(), uhlmann.outcome.fidelity.mean());
  EXPECT_NEAR(jozsa.outcome.fidelity.mean(),
              uhlmann.outcome.fidelity.mean() * uhlmann.outcome.fidelity.mean(), 0.01);
}

}  // namespace
}  // namespace qntn::sim
