#include "sim/coverage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/ground_networks.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "obs/registry.hpp"
#include "orbit/constellation.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/propagator.hpp"
#include "sim/daylight.hpp"
#include "sim/endurance.hpp"

// Differential oracle for TopologyProvider::lans_connected_at: on every
// coverage step of a day it must answer what all_lans_connected answers on
// the same provider's graph_at(t).

namespace qntn::sim {
namespace {

using core::QntnConfig;

constexpr double kStep = 30.0;
constexpr std::size_t kSteps = 2880;  // one day at the paper's 30 s step

/// all_lans_connected(graph_at(t)) at every coverage step of the day.
std::vector<std::uint8_t> graph_flags(const NetworkModel& model,
                                      const TopologyProvider& topology) {
  std::vector<std::uint8_t> flags(kSteps, 0);
  for (std::size_t i = 0; i < kSteps; ++i) {
    const double t = static_cast<double>(i) * kStep;
    flags[i] = all_lans_connected(model, topology.graph_at(t)) ? 1 : 0;
  }
  return flags;
}

/// Checks lans_connected_at against the graph oracle on every step of the
/// day; returns the number of connected steps.
std::size_t check_day(const NetworkModel& model,
                      const TopologyProvider& topology,
                      const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<std::uint8_t> want = graph_flags(model, topology);
  std::size_t mismatches = 0;
  double first = -1.0;
  std::size_t connected = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    const double t = static_cast<double>(i) * kStep;
    const bool got = topology.lans_connected_at(model, t);
    if (got != (want[i] != 0)) {
      if (mismatches++ == 0) first = t;
    }
    connected += want[i];
  }
  EXPECT_EQ(mismatches, 0u) << "first at t=" << first;
  return connected;
}

/// Checks both providers, the per-step rebuild and the contact plan, built
/// from the same config; returns the rebuild's connected-step count.
std::size_t check_both_providers(QntnConfig config, const NetworkModel& model,
                                 const std::string& label) {
  config.topology_mode = core::TopologyMode::Rebuild;
  const core::Topology rebuild = core::make_topology(config, model);
  const std::size_t connected =
      check_day(model, rebuild.provider(), label + " / rebuild");
  config.topology_mode = core::TopologyMode::ContactPlan;
  const core::Topology plan = core::make_topology(config, model);
  (void)check_day(model, plan.provider(), label + " / plan");
  return connected;
}

/// The LAN whose representative split_lan_model cuts off. The search
/// starts at LAN 0's representative, so only a later LAN can tell the
/// representative from the other members.
constexpr std::size_t kSplitLan = 2;

/// The Table I LANs plus the Table II constellation truncated to n, with
/// LAN kSplitLan led by an extra node near Memphis, hundreds of km from
/// its LAN mates. No fiber link of that length meets the threshold, so
/// the representative is cut off from the rest of its LAN and a satellite
/// that reaches only the rest does not connect the LAN.
NetworkModel split_lan_model(const QntnConfig& config, std::size_t n) {
  NetworkModel model;
  std::vector<core::LanDefinition> lans = core::qntn_lans();
  lans[kSplitLan].nodes.insert(lans[kSplitLan].nodes.begin(),
                               geo::Geodetic::from_degrees(35.15, -90.05));
  for (const core::LanDefinition& lan : lans) {
    model.add_lan(lan.name, lan.nodes, config.ground_terminal());
  }
  orbit::PropagatorOptions options;
  options.include_j2 = config.include_j2;
  const auto elements = orbit::qntn_constellation(n);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    model.add_satellite(
        "sat" + std::to_string(i),
        orbit::Ephemeris::generate(
            orbit::TwoBodyPropagator(elements[i], options),
            config.day_duration, config.ephemeris_step, config.gmst0),
        config.satellite_terminal());
  }
  return model;
}

TEST(CoverageConnectivity, RebuildAndPlanAcrossConstellationSizes) {
  const QntnConfig config;
  for (const std::size_t n : {std::size_t{0}, std::size_t{6}, std::size_t{36},
                              std::size_t{108}}) {
    const NetworkModel model = n == 0
                                   ? core::build_ground_model(config)
                                   : core::build_space_ground_model(config, n);
    const std::size_t connected =
        check_both_providers(config, model, "n=" + std::to_string(n));
    if (n == 0) {
      EXPECT_EQ(connected, 0u);
    }
    if (n == 108) {
      // Both answers occur, so the check is not vacuous.
      EXPECT_GT(connected, 0u);
      EXPECT_LT(connected, kSteps);
    }
  }
}

TEST(CoverageConnectivity, AirGroundAndHybridWithHapSatelliteLinks) {
  QntnConfig config;
  EXPECT_EQ(check_both_providers(config, core::build_air_ground_model(config),
                                 "air-ground"),
            kSteps);
  config.enable_hap_satellite = true;
  (void)check_both_providers(config, core::build_hybrid_model(config, 36),
                             "hybrid, HAP-satellite links");
}

TEST(CoverageConnectivity, ElevationMasksAndThreshold) {
  QntnConfig mask10;
  mask10.elevation_mask = deg_to_rad(10.0);
  QntnConfig mask45;
  mask45.elevation_mask = deg_to_rad(45.0);
  QntnConfig threshold;
  threshold.transmissivity_threshold = 0.3;
  const std::vector<std::pair<std::string, QntnConfig>> cases = {
      {"mask 10 deg", mask10},
      {"mask 45 deg", mask45},
      {"threshold 0.3", threshold}};
  for (auto [label, config] : cases) {
    (void)check_both_providers(config,
                               core::build_space_ground_model(config, 36),
                               label + ", space-ground");
    // At 45 deg the ground-HAP links fail the mask, so the HAP joins the
    // LANs only through satellites.
    config.enable_hap_satellite = true;
    (void)check_both_providers(config, core::build_hybrid_model(config, 36),
                               label + ", hybrid");
  }
}

TEST(CoverageConnectivity, RepresentativeStandsForItsLan) {
  // Chain and star LANs whose representative's fiber links fail the
  // threshold: the query must follow the representative, as
  // all_lans_connected does, not any member of the LAN.
  for (const LanTopology lans : {LanTopology::Chain, LanTopology::Star}) {
    QntnConfig config;
    config.lan_topology = lans;
    ASSERT_TRUE(config.link_policy().threshold_applies_to_fiber);
    const NetworkModel model = split_lan_model(config, 108);
    const std::string label = lans == LanTopology::Chain ? "chain" : "star";
    (void)check_both_providers(config, model, label);

    // The day holds steps where the split LAN's other members are joined
    // to the other LANs but its representative is not, so the two
    // readings differ and the check above tells them apart.
    const TopologyBuilder topology(model, config.link_policy());
    std::size_t member_only = 0;
    for (std::size_t i = 0; i < kSteps; ++i) {
      const net::Graph graph =
          topology.graph_at(static_cast<double>(i) * kStep);
      const std::vector<std::size_t> comp = graph.components();
      const std::size_t joined = comp[model.lan_nodes(0).front()];
      bool members = comp[model.lan_nodes(1).front()] == joined;
      bool any = false;
      for (const net::NodeId g : model.lan_nodes(kSplitLan)) {
        any = any || comp[g] == joined;
      }
      members = members && any;
      if (members && !all_lans_connected(model, graph)) ++member_only;
    }
    EXPECT_GT(member_only, 0u) << label;
  }
}

TEST(CoverageConnectivity, DecoratorsAnswerThroughTheirGraphs) {
  QntnConfig config;
  config.enable_hap_satellite = true;
  const NetworkModel model = core::build_hybrid_model(config, 36);
  const TopologyBuilder base(model, config.link_policy());
  DaylightPolicy night;
  night.sun.subsolar_longitude0 = deg_to_rad(-85.0);
  const DaylightGatedTopology gated(base, model, night);
  const DutyCycledTopology cycled(base, {model.hap_ids().front()},
                                  DutyCycle{7200.0, 7200.0, 0.0});
  for (const auto& [label, topology] :
       std::vector<std::pair<std::string, const TopologyProvider*>>{
           {"daylight", &gated}, {"duty cycle", &cycled}}) {
    (void)check_day(model, *topology, label);
    CoverageOptions options;
    const CoverageResult result = analyze_coverage(model, *topology, options);
    EXPECT_EQ(result.step_connected, graph_flags(model, *topology)) << label;
  }
}

TEST(CoverageConnectivity, SerialAndPoolCoverageAgree) {
  QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 108);
  config.topology_mode = core::TopologyMode::ContactPlan;
  const core::Topology plan = core::make_topology(config, model);
  const std::vector<std::uint8_t> want = graph_flags(model, plan.provider());

  CoverageOptions serial;
  const CoverageResult expected =
      analyze_coverage(model, plan.provider(), serial);
  EXPECT_EQ(expected.step_connected, want);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    CoverageOptions pooled = serial;
    pooled.pool = &pool;
    const CoverageResult actual =
        analyze_coverage(model, plan.provider(), pooled);
    EXPECT_EQ(actual.step_connected, want) << threads;
    EXPECT_EQ(actual.covered_s, expected.covered_s) << threads;
  }

  // The per-step rebuild covers the same steps (the plan is exact on the
  // grid).
  const TopologyBuilder rebuild(model, config.link_policy());
  EXPECT_EQ(analyze_coverage(model, rebuild, serial).step_connected, want);
}

TEST(CoverageConnectivity, CoverageBuildsNoGraph) {
  QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 36);
  const TopologyBuilder rebuild(model, config.link_policy());
  {
    obs::Registry registry;
    const obs::ScopedRegistry ambient(&registry);
    (void)analyze_coverage(model, rebuild, CoverageOptions{});
    EXPECT_EQ(registry.counter("sim.connectivity_queries"), kSteps);
    EXPECT_EQ(registry.counter("sim.rebuild_queries"), 0u);
    const std::uint64_t budgets =
        registry.counter("sim.connectivity_link_budgets");
    EXPECT_GT(budgets, 0u);
    // Fewer budgets than enumerating every link at every step.
    obs::Registry full;
    {
      const obs::ScopedRegistry full_ambient(&full);
      for (std::size_t i = 0; i < kSteps; ++i) {
        (void)rebuild.links_at(static_cast<double>(i) * kStep);
      }
    }
    EXPECT_LT(budgets, full.counter("sim.rebuild_link_budgets"));
  }

  config.topology_mode = core::TopologyMode::ContactPlan;
  const core::Topology plan = core::make_topology(config, model);
  ThreadPool pool(2);
  obs::Registry registry;
  CoverageOptions options;
  options.pool = &pool;
  options.registry = &registry;
  (void)analyze_coverage(model, plan.provider(), options);
  EXPECT_GT(registry.counter("sim.connectivity_queries"), 0u);
  EXPECT_EQ(registry.counter("plan.graph_queries"), 0u);
}

TEST(CoverageConnectivity, StaticLinksJoinTheLansBeforeAnyBudget) {
  // With the HAP in view of every LAN, the static links alone join them:
  // the search stops there and evaluates no satellite link budget.
  QntnConfig config;
  config.enable_hap_satellite = true;
  const NetworkModel model = core::build_hybrid_model(config, 108);
  const TopologyBuilder topology(model, config.link_policy());
  obs::Registry registry;
  const obs::ScopedRegistry ambient(&registry);
  const CoverageResult result =
      analyze_coverage(model, topology, CoverageOptions{});
  EXPECT_EQ(result.percent, 100.0);
  EXPECT_EQ(registry.counter("sim.connectivity_queries"), kSteps);
  EXPECT_EQ(registry.counter("sim.connectivity_link_budgets"), 0u);
}

}  // namespace
}  // namespace qntn::sim
