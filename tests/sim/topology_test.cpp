#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/registry.hpp"

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "orbit/constellation.hpp"

namespace qntn::sim {
namespace {

using core::QntnConfig;

TEST(Topology, GroundOnlyModelHasOnlyFiberMeshes) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const net::Graph g = topology.graph_at(0.0);
  EXPECT_EQ(g.node_count(), 31u);  // 5 + 15 + 11 (Table I)
  // Full meshes: C(5,2) + C(15,2) + C(11,2) = 10 + 105 + 55.
  EXPECT_EQ(g.edge_count(), 170u);
  // The three LANs stay disconnected from each other (fiber cannot span
  // the inter-city distances at the 0.7 threshold).
  EXPECT_FALSE(g.connected(model.lan_nodes(0).front(),
                           model.lan_nodes(1).front()));
  EXPECT_FALSE(g.connected(model.lan_nodes(0).front(),
                           model.lan_nodes(2).front()));
}

TEST(Topology, LanTopologyVariants) {
  QntnConfig config;
  config.lan_topology = LanTopology::Chain;
  const NetworkModel model = core::build_ground_model(config);
  {
    const TopologyBuilder topology(model, config.link_policy());
    // Chains: 4 + 14 + 10 edges.
    EXPECT_EQ(topology.graph_at(0.0).edge_count(), 28u);
  }
  config.lan_topology = LanTopology::Star;
  {
    const TopologyBuilder topology(model, config.link_policy());
    EXPECT_EQ(topology.graph_at(0.0).edge_count(), 28u);  // same count, star
  }
}

TEST(Topology, IntraLanFiberIsNearLossless) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  // The longest Table I span (ORNL, ~2 km) still loses < 0.35 dB.
  const TopologyBuilder topology(model, config.link_policy());
  for (const LinkRecord& link : topology.links_at(0.0)) {
    EXPECT_GT(link.transmissivity, 0.9);
  }
}

TEST(Topology, AirGroundLinksAreStaticAndAboveThreshold) {
  const QntnConfig config;
  const NetworkModel model = core::build_air_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const net::Graph g0 = topology.graph_at(0.0);
  const net::Graph g1 = topology.graph_at(43'200.0);
  // Every ground node links to the HAP at any time: 170 fiber + 31 FSO.
  EXPECT_EQ(g0.edge_count(), 201u);
  EXPECT_EQ(g1.edge_count(), 201u);
  // All LANs interconnected through the HAP.
  EXPECT_TRUE(g0.connected(model.lan_nodes(0).front(),
                           model.lan_nodes(2).front()));
}

TEST(Topology, HapLinkTransmissivityQueryable) {
  const QntnConfig config;
  const NetworkModel model = core::build_air_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const net::NodeId hap = model.hap_ids().front();
  const auto eta = topology.link_transmissivity(0, hap, 0.0);
  ASSERT_TRUE(eta.has_value());
  EXPECT_GT(*eta, config.transmissivity_threshold);
  EXPECT_LT(*eta, 1.0);
}

TEST(Topology, SatelliteLinksComeAndGo) {
  const QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 6);
  const TopologyBuilder topology(model, config.link_policy());
  // Over a day, a 6-satellite single-plane constellation must sometimes
  // link the ground and sometimes not.
  std::size_t with_links = 0, without_links = 0;
  for (double t = 0.0; t < 86'400.0; t += 900.0) {
    const std::size_t extra = topology.links_at(t).size() - 170u;
    (extra > 0 ? with_links : without_links) += 1;
  }
  EXPECT_GT(with_links, 0u);
  EXPECT_GT(without_links, 0u);
}

TEST(Topology, InterCityGroundPairsHaveNoChannel) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const net::NodeId ttu = model.lan_nodes(0).front();
  const net::NodeId epb = model.lan_nodes(1).front();
  EXPECT_FALSE(topology.link_transmissivity(ttu, epb, 0.0).has_value());
  // Intra-LAN pairs do have fiber.
  EXPECT_TRUE(topology
                  .link_transmissivity(model.lan_nodes(0)[0],
                                       model.lan_nodes(0)[1], 0.0)
                  .has_value());
}

TEST(Topology, ThresholdGatesLinkEstablishment) {
  QntnConfig strict;
  strict.transmissivity_threshold = 0.999;  // nothing FSO passes
  const NetworkModel model = core::build_air_ground_model(strict);
  const TopologyBuilder topology(model, strict.link_policy());
  // Only the shortest fiber spans survive; in particular no HAP links, so
  // the edge count drops below the ground-only full mesh.
  const net::Graph g = topology.graph_at(0.0);
  EXPECT_LT(g.edge_count(), 170u);
  for (const net::Edge& edge : g.edges()) {
    EXPECT_GE(edge.transmissivity, 0.999);
  }
}

TEST(Topology, ElevationMaskGatesHapLinks) {
  QntnConfig high_mask;
  high_mask.elevation_mask = deg_to_rad(45.0);  // HAP sits at ~22 deg
  const NetworkModel model = core::build_air_ground_model(high_mask);
  const TopologyBuilder topology(model, high_mask.link_policy());
  EXPECT_EQ(topology.graph_at(0.0).edge_count(), 170u);
}

TEST(Topology, MixedTerminalConfigsRejected) {
  const QntnConfig config;
  NetworkModel model;
  model.add_lan("A", {geo::Geodetic::from_degrees(36.0, -85.0, 0.0)},
                {1.2, 1e-7});
  model.add_lan("B", {geo::Geodetic::from_degrees(35.0, -85.0, 0.0)},
                {0.6, 1e-7});  // different aperture in the same class
  EXPECT_THROW((void)TopologyBuilder(model, config.link_policy()), PreconditionError);
}

TEST(Topology, HybridEnablesHapSatelliteLinks) {
  QntnConfig config;
  config.enable_hap_satellite = true;
  const NetworkModel model = core::build_hybrid_model(config, 6);
  const TopologyBuilder topology(model, config.link_policy());
  const net::NodeId hap = model.hap_ids().front();
  // At some point during the day a satellite passes above the HAP's mask;
  // the query must return a value then (even if below threshold).
  bool ever_visible = false;
  for (double t = 0.0; t < 86'400.0 && !ever_visible; t += 300.0) {
    for (const net::NodeId sat : model.satellite_ids()) {
      if (topology.link_transmissivity(hap, sat, t).has_value()) {
        ever_visible = true;
        break;
      }
    }
  }
  EXPECT_TRUE(ever_visible);
}

// Regression: link_transmissivity once carried its own copy of the
// kind-pair -> evaluator dispatch table (in a local that shadowed the
// evaluator() member), so the pairwise query could drift from the bulk
// links_at() enumeration. Pin the two code paths to identical values for
// every emitted link, across all link classes of the hybrid model.
TEST(Topology, PairwiseQueryAgreesWithBulkEnumeration) {
  QntnConfig config;
  config.enable_hap_satellite = true;
  const NetworkModel model = core::build_hybrid_model(config, 6);
  const TopologyBuilder topology(model, config.link_policy());
  std::size_t checked = 0;
  for (double t = 0.0; t < 86'400.0; t += 7'200.0) {
    for (const LinkRecord& link : topology.links_at(t)) {
      const auto eta = topology.link_transmissivity(link.a, link.b, t);
      ASSERT_TRUE(eta.has_value())
          << "links_at emitted " << link.a << "-" << link.b
          << " but the pairwise query denies it (t=" << t << ")";
      EXPECT_DOUBLE_EQ(*eta, link.transmissivity);
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);  // fiber meshes alone give 170 links per epoch
}

// --- Policy guard at the TopologyBuilder boundary. ---

/// Expect the builder to reject `policy` with a PreconditionError whose
/// message names `field`.
void expect_policy_rejected(const LinkPolicy& policy, const std::string& field) {
  const NetworkModel model = core::build_ground_model(QntnConfig{});
  try {
    const TopologyBuilder topology(model, policy);
    ADD_FAILURE() << "policy accepted; expected a rejection naming " << field;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(TopologyPolicy, RejectsBadTransmissivityThreshold) {
  for (const double threshold :
       {std::nan(""), 1.5, -0.1, std::numeric_limits<double>::infinity()}) {
    LinkPolicy policy = QntnConfig{}.link_policy();
    policy.transmissivity_threshold = threshold;
    expect_policy_rejected(policy, "transmissivity_threshold");
  }
}

TEST(TopologyPolicy, RejectsBadElevationMask) {
  for (const double mask : {std::nan(""), deg_to_rad(-30.0), 0.0, kPi / 2.0,
                            std::numeric_limits<double>::infinity()}) {
    LinkPolicy policy = QntnConfig{}.link_policy();
    policy.elevation_mask = mask;
    expect_policy_rejected(policy, "elevation_mask_deg");
  }
}

TEST(TopologyPolicy, RejectsBadFiberAttenuation) {
  for (const double attenuation :
       {std::nan(""), -0.15, std::numeric_limits<double>::infinity()}) {
    LinkPolicy policy = QntnConfig{}.link_policy();
    policy.fiber_attenuation_db_per_km = attenuation;
    expect_policy_rejected(policy, "fiber_attenuation_db_per_km");
  }
}

TEST(TopologyPolicy, AcceptsThresholdAndMaskEdges) {
  const NetworkModel model = core::build_ground_model(QntnConfig{});
  for (const double threshold : {0.0, 1.0}) {
    LinkPolicy policy = QntnConfig{}.link_policy();
    policy.transmissivity_threshold = threshold;
    EXPECT_NO_THROW((void)TopologyBuilder(model, policy));
  }
  LinkPolicy lossless = QntnConfig{}.link_policy();
  lossless.fiber_attenuation_db_per_km = 0.0;
  lossless.elevation_mask = deg_to_rad(89.0);
  EXPECT_NO_THROW((void)TopologyBuilder(model, lossless));
}

// --- The ISL threshold range and the monotone budget it relies on. ---

channel::FsoLinkEvaluator isl_evaluator(const channel::OpticalTerminal& terminal) {
  const QntnConfig config;
  return {config.link_policy().fso, terminal, terminal,
          orbit::kQntnAltitude, orbit::kQntnAltitude};
}

// Both the contact-plan compiler and the per-step rebuild skip satellite
// pairs beyond isl_threshold_range + kIslThresholdBand without evaluating
// the budget. That is exact only because the sat-sat budget never rises
// with range; pin it on a dense log grid for the paper terminals and two
// other aperture/jitter configurations.
TEST(IslThresholdRange, SatSatBudgetIsNonIncreasingInRange) {
  const QntnConfig config;
  const channel::OpticalTerminal terminals[] = {
      {config.satellite_aperture_radius, config.pointing_jitter},
      {0.30, 1.0e-6},
      {2.00, 0.0},
  };
  for (const channel::OpticalTerminal& terminal : terminals) {
    const channel::FsoLinkEvaluator evaluator = isl_evaluator(terminal);
    constexpr int kPoints = 40'000;
    double previous = evaluator.symmetric(1.0, kPi / 2.0);
    for (int k = 1; k <= kPoints; ++k) {
      const double range = std::pow(10.0, 8.0 * k / kPoints);  // 1 m .. 1e8 m
      const double eta = evaluator.symmetric(range, kPi / 2.0);
      ASSERT_LE(eta, previous) << "aperture " << terminal.aperture_radius
                               << " jitter " << terminal.pointing_jitter
                               << " range " << range;
      previous = eta;
    }
  }
}

TEST(IslThresholdRange, BracketsTheThresholdCrossing) {
  const QntnConfig config;
  const channel::FsoLinkEvaluator evaluator =
      isl_evaluator({config.satellite_aperture_radius, config.pointing_jitter});
  const double threshold = config.transmissivity_threshold;
  const double range = isl_threshold_range(evaluator, threshold);
  ASSERT_TRUE(std::isfinite(range));
  ASSERT_GT(range, kIslThresholdBand);
  EXPECT_GE(evaluator.symmetric(range - kIslThresholdBand, kPi / 2.0), threshold);
  EXPECT_LT(evaluator.symmetric(range + kIslThresholdBand, kPi / 2.0), threshold);
}

TEST(IslThresholdRange, ZeroWhenNothingPassesInfiniteWhenEverythingDoes) {
  const QntnConfig config;
  const channel::FsoLinkEvaluator evaluator =
      isl_evaluator({config.satellite_aperture_radius, config.pointing_jitter});
  // Receiver efficiency < 1 caps every budget below 1.
  EXPECT_EQ(isl_threshold_range(evaluator, 1.0), 0.0);
  EXPECT_EQ(isl_threshold_range(evaluator, 0.0),
            std::numeric_limits<double>::infinity());
}

// --- Differential oracle: links_at against the original full rebuild. ---

/// The per-step rebuild as it stood before the hoisted frames, horizon skip
/// and ISL range skip: every site-satellite pair through the Geodetic
/// look_angles overload, every satellite pair through the line-of-sight
/// test and the budget. The body is kept verbatim (hence the member-style
/// names), plus a tally of link-budget evaluations in `budgets`.
std::vector<LinkRecord> reference_links_at(const NetworkModel& model_,
                                           const TopologyBuilder& builder,
                                           double t, std::size_t& budgets) {
  const LinkPolicy& policy_ = builder.policy();
  const channel::FsoLinkEvaluator* ground_sat_ =
      builder.evaluator(NodeKind::Ground, NodeKind::Satellite);
  const channel::FsoLinkEvaluator* hap_sat_ =
      builder.evaluator(NodeKind::Hap, NodeKind::Satellite);
  const channel::FsoLinkEvaluator* sat_sat_ =
      builder.evaluator(NodeKind::Satellite, NodeKind::Satellite);
  std::vector<LinkRecord> links = builder.static_links();

  const std::vector<net::NodeId>& sats = model_.satellite_ids();
  std::vector<channel::Endpoint> sat_pos;
  sat_pos.reserve(sats.size());
  for (const net::NodeId s : sats) {
    sat_pos.push_back(model_.endpoint_at(s, t));
  }

  // Ground-satellite and HAP-satellite links.
  for (std::size_t si = 0; si < sats.size(); ++si) {
    const channel::Endpoint& es = sat_pos[si];
    if (ground_sat_) {
      for (std::size_t lan = 0; lan < model_.lan_count(); ++lan) {
        for (const net::NodeId g : model_.lan_nodes(lan)) {
          const channel::Endpoint eg = model_.endpoint_at(g, t);
          const geo::AzElRange look = geo::look_angles(eg.geodetic, es.ecef);
          if (look.elevation < policy_.elevation_mask) continue;
          const double eta = ground_sat_->symmetric(look.range, look.elevation);
          ++budgets;
          if (eta >= policy_.transmissivity_threshold) {
            links.push_back({g, sats[si], eta});
          }
        }
      }
    }
    if (hap_sat_) {
      for (const net::NodeId h : model_.hap_ids()) {
        const channel::Endpoint eh = model_.endpoint_at(h, t);
        const geo::AzElRange look = geo::look_angles(eh.geodetic, es.ecef);
        if (look.elevation < policy_.elevation_mask) continue;
        const double eta = hap_sat_->symmetric(look.range, look.elevation);
        ++budgets;
        if (eta >= policy_.transmissivity_threshold) {
          links.push_back({h, sats[si], eta});
        }
      }
    }
  }

  // Inter-satellite links: Earth/atmosphere clearance, then threshold.
  if (sat_sat_) {
    for (std::size_t i = 0; i < sats.size(); ++i) {
      for (std::size_t j = i + 1; j < sats.size(); ++j) {
        if (!geo::line_of_sight(sat_pos[i].ecef, sat_pos[j].ecef,
                                kEarthRadius + kAtmosphereTopAltitude)) {
          continue;
        }
        const double range = distance(sat_pos[i].ecef, sat_pos[j].ecef);
        const double eta = sat_sat_->symmetric(range, kPi / 2.0);
        ++budgets;
        if (eta >= policy_.transmissivity_threshold) {
          links.push_back({sats[i], sats[j], eta});
        }
      }
    }
  }
  return links;
}

struct OracleCase {
  std::string name;
  QntnConfig config;
  bool hybrid = false;
  /// The ISL range skip can fire (ISLs on and a finite threshold range), so
  /// links_at must evaluate strictly fewer budgets than the reference.
  bool expect_fewer_budgets = true;
};

/// Compare links_at with the reference at 500 seeded off-grid times:
/// identical link sequences with bit-identical transmissivities.
void check_against_reference(const OracleCase& c, std::size_t n_satellites) {
  SCOPED_TRACE(c.name);
  const NetworkModel model =
      c.hybrid ? core::build_hybrid_model(c.config, n_satellites)
               : core::build_space_ground_model(c.config, n_satellites);
  const TopologyBuilder topology(model, c.config.link_policy());
  obs::Registry registry;
  const obs::ScopedRegistry ambient(&registry);
  Rng rng(20241017);
  std::size_t reference_budgets = 0;
  std::size_t dynamic_links = 0;
  for (int q = 0; q < 500; ++q) {
    const double t = rng.uniform(0.0, 86'400.0);
    const std::vector<LinkRecord> want =
        reference_links_at(model, topology, t, reference_budgets);
    const std::vector<LinkRecord> got = topology.links_at(t);
    ASSERT_EQ(got.size(), want.size()) << "t=" << t;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].a, want[k].a) << "t=" << t << " link " << k;
      ASSERT_EQ(got[k].b, want[k].b) << "t=" << t << " link " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k].transmissivity),
                std::bit_cast<std::uint64_t>(want[k].transmissivity))
          << "t=" << t << " link " << k;
    }
    dynamic_links += got.size() - topology.static_links().size();
  }
  const std::uint64_t budgets = registry.counter("sim.rebuild_link_budgets");
  EXPECT_EQ(registry.counter("sim.rebuild_queries"), 500u);
  if (c.expect_fewer_budgets) {
    EXPECT_LT(budgets, reference_budgets);
  } else {
    EXPECT_EQ(budgets, reference_budgets);
  }
  std::printf("[ oracle   ] %s: %zu dynamic links, %llu of %zu budgets\n",
              c.name.c_str(), dynamic_links,
              static_cast<unsigned long long>(budgets), reference_budgets);
}

TEST(TopologyOracle, PaperSpaceGround108) {
  check_against_reference({"paper space-ground", QntnConfig{}}, 108);
}

TEST(TopologyOracle, HybridWithHapSatelliteLinks) {
  QntnConfig config;
  config.enable_hap_satellite = true;
  check_against_reference({"hybrid", config, /*hybrid=*/true}, 108);
}

TEST(TopologyOracle, InterSatelliteLinksDisabled) {
  QntnConfig config;
  config.enable_inter_satellite = false;
  check_against_reference(
      {"no ISL", config, /*hybrid=*/false, /*expect_fewer_budgets=*/false}, 108);
}

TEST(TopologyOracle, ThresholdRangeZeroAndInfinite) {
  QntnConfig none;
  none.transmissivity_threshold = 1.0;  // threshold range 0: no link passes
  check_against_reference({"threshold 1", none}, 54);
  QntnConfig all;
  all.transmissivity_threshold = 0.0;  // threshold range +inf: no range skip
  check_against_reference(
      {"threshold 0", all, /*hybrid=*/false, /*expect_fewer_budgets=*/false}, 54);
}

TEST(TopologyOracle, ExtremeElevationMasks) {
  QntnConfig low;
  low.elevation_mask = deg_to_rad(1.0);
  check_against_reference({"mask 1 deg", low}, 108);
  QntnConfig high;
  high.elevation_mask = deg_to_rad(89.0);
  check_against_reference({"mask 89 deg", high}, 108);
}

}  // namespace
}  // namespace qntn::sim
