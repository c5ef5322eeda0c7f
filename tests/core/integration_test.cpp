// End-to-end cross-checks tying the layers together: the routing layer's
// closed-form fidelity must equal a full density-matrix simulation of the
// same multi-hop path, and the topology/coverage layers must be mutually
// consistent with the raw link queries.

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "net/routing.hpp"
#include "quantum/channels.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/state.hpp"
#include "sim/requests.hpp"

namespace qntn::core {
namespace {

TEST(Integration, MultiHopFidelityMatchesDensityMatrixSimulation) {
  // Serve one request over the air-ground network, then replay the exact
  // route hop by hop through the Kraus machinery.
  const QntnConfig config;
  const sim::NetworkModel model = build_air_ground_model(config);
  const sim::TopologyBuilder topology(model, config.link_policy());
  const net::Graph graph = topology.graph_at(0.0);

  const net::NodeId src = model.lan_nodes(0).front();
  const net::NodeId dst = model.lan_nodes(2).front();
  const auto route = net::bellman_ford(graph, src, dst);
  ASSERT_TRUE(route.has_value());
  ASSERT_GE(route->path.size(), 3u);  // relays through the HAP

  // Density-matrix replay: one amplitude-damping application per hop on the
  // travelling half of a PhiPlus pair.
  quantum::Matrix rho =
      quantum::pure_density(quantum::bell_state(quantum::BellState::PhiPlus));
  for (std::size_t i = 0; i + 1 < route->path.size(); ++i) {
    double best_eta = 0.0;
    for (const net::Adjacency& adj : graph.neighbors(route->path[i])) {
      if (adj.to == route->path[i + 1]) {
        best_eta = std::max(best_eta, adj.transmissivity);
      }
    }
    ASSERT_GT(best_eta, 0.0);
    rho = quantum::amplitude_damping(best_eta).apply_to_qubit(rho, 1);
  }
  const double simulated = quantum::fidelity_to_pure(
      rho, quantum::bell_state(quantum::BellState::PhiPlus),
      quantum::FidelityConvention::Uhlmann);
  const double closed_form = quantum::bell_fidelity_after_damping(
      route->transmissivity, quantum::FidelityConvention::Uhlmann);
  EXPECT_NEAR(simulated, closed_form, 1e-9);
}

TEST(Integration, CoverageAgreesWithRawLinkQueries) {
  // At a covered instant there exists a satellite whose raw transmissivity
  // to some node of each LAN clears the threshold (or a relay chain does);
  // at minimum, verify the graph edges equal thresholded link queries.
  const QntnConfig config;
  const sim::NetworkModel model = build_space_ground_model(config, 12);
  const sim::TopologyBuilder topology(model, config.link_policy());
  const double t = 5'400.0;
  const net::Graph graph = topology.graph_at(t);
  for (const net::Edge& edge : graph.edges()) {
    const auto raw = topology.link_transmissivity(edge.a, edge.b, t);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NEAR(*raw, edge.transmissivity, 1e-12);
    EXPECT_GE(edge.transmissivity, config.transmissivity_threshold);
  }
}

TEST(Integration, ServedRequestsNeverExceedCoverageConnectivity) {
  // When all three LANs are interconnected, every inter-LAN request is
  // servable; when no satellite links exist at all, none are.
  const QntnConfig config;
  const sim::NetworkModel model = build_space_ground_model(config, 18);
  const sim::TopologyBuilder topology(model, config.link_policy());
  Rng rng(17);
  const auto requests = sim::generate_requests(model, 50, rng);
  for (double t = 0.0; t <= 21'600.0; t += 1'800.0) {
    const net::Graph graph = topology.graph_at(t);
    const sim::ServeOutcome served =
        sim::serve_requests(graph, requests).outcome;
    if (sim::all_lans_connected(model, graph)) {
      EXPECT_EQ(served.served, served.issued) << "t=" << t;
    }
    if (graph.edge_count() == 170u) {  // fiber only, no space links
      EXPECT_EQ(served.served, 0u) << "t=" << t;
    }
  }
}

TEST(Integration, ThresholdAblationMonotonicity) {
  // Lowering the link threshold can only add links -> coverage and service
  // are monotone non-increasing in the threshold.
  QntnConfig strict;
  strict.day_duration = 10'800.0;
  strict.ephemeris_step = 60.0;
  strict.request_count = 20;
  strict.request_steps = 5;
  QntnConfig lax = strict;
  strict.transmissivity_threshold = 0.8;
  lax.transmissivity_threshold = 0.6;
  const ArchitectureMetrics tight = evaluate_space_ground(strict, 24);
  const ArchitectureMetrics loose = evaluate_space_ground(lax, 24);
  EXPECT_GE(loose.coverage_percent + 1e-9, tight.coverage_percent);
  EXPECT_GE(loose.served_percent + 1e-9, tight.served_percent);
  // But looser links admit lower-fidelity pairs.
  if (tight.mean_fidelity > 0.0 && loose.mean_fidelity > 0.0) {
    EXPECT_LE(loose.mean_fidelity, tight.mean_fidelity + 1e-9);
  }
}

TEST(Integration, WeatherDegradationReducesAirGroundFidelity) {
  QntnConfig clear;
  clear.request_count = 20;
  clear.request_steps = 2;
  clear.day_duration = 3600.0;
  QntnConfig hazy = clear;
  hazy.weather = channel::haze();
  const ArchitectureMetrics a = evaluate_air_ground(clear);
  const ArchitectureMetrics b = evaluate_air_ground(hazy);
  // Haze keeps the HAP links alive but costs fidelity.
  EXPECT_LT(b.mean_fidelity, a.mean_fidelity);
}

TEST(Integration, J2AblationChangesCoverageOnlySlightly) {
  QntnConfig no_j2;
  no_j2.day_duration = 10'800.0;
  no_j2.ephemeris_step = 60.0;
  no_j2.request_count = 10;
  no_j2.request_steps = 3;
  QntnConfig with_j2 = no_j2;
  with_j2.include_j2 = true;
  const ArchitectureMetrics a = evaluate_space_ground(no_j2, 24);
  const ArchitectureMetrics b = evaluate_space_ground(with_j2, 24);
  // J2 shifts pass timing but not the statistical picture: within a few
  // percentage points over this window.
  EXPECT_NEAR(a.coverage_percent, b.coverage_percent, 10.0);
}

}  // namespace
}  // namespace qntn::core
