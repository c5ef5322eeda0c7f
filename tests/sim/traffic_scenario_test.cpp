#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/experiments.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "geo/sun.hpp"
#include "net/routing.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "sim/network_model.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

/// The open-arrival traffic serving mode of run_scenario (DESIGN.md §12):
/// determinism across thread counts (the PR 4 golden contract extended to
/// event windows), the six-bucket accounting identity, backpressure and
/// deadline behaviour under saturation, the diurnal arrival profile, and
/// the TrafficEngine's single-window behaviour: queueing, per-node
/// capacity limits and saturation rerouting.

namespace qntn::sim {
namespace {

using core::QntnConfig;
using core::TopologyMode;

/// Four hours, ten 1440-s serving windows, light per-LAN arrivals — a few
/// hundred events, seconds of wall clock.
ScenarioConfig quick_traffic_config(const QntnConfig& config) {
  ScenarioConfig sc = config.scenario_config();
  sc.coverage.duration = 14'400.0;
  sc.coverage.step = 120.0;
  sc.request_count = 30;
  sc.request_steps = 10;
  sc.request_step_interval = 1440.0;
  sc.traffic.arrival_rate = 0.02;
  return sc;
}

struct RunOutput {
  ScenarioResult result;
  std::string trace;
};

RunOutput run_traffic_with(TopologyMode mode, ThreadPool* pool,
                           obs::Registry* registry = nullptr) {
  QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  config.topology_mode = mode;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  RunOutput out;
  std::ostringstream trace_stream;
  obs::TraceSink trace(trace_stream, obs::TraceLevel::Requests);
  ScenarioConfig sc = quick_traffic_config(config);
  sc.pool = pool;
  sc.trace = &trace;
  sc.registry = registry;
  out.result = run_scenario(model, topology.provider(), sc);
  out.trace = trace_stream.str();
  return out;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  if (a.count() == 0 || b.count() == 0) return;
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.stddev(), b.stddev());
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.result.served_fraction, b.result.served_fraction);
  expect_same_stats(a.result.totals.fidelity, b.result.totals.fidelity);
  expect_same_stats(a.result.totals.transmissivity, b.result.totals.transmissivity);
  expect_same_stats(a.result.totals.hops, b.result.totals.hops);
  EXPECT_EQ(a.result.totals.issued, b.result.totals.issued);
  EXPECT_EQ(a.result.totals.served, b.result.totals.served);
  EXPECT_EQ(a.result.totals.no_path, b.result.totals.no_path);
  EXPECT_EQ(a.result.totals.isolated, b.result.totals.isolated);
  EXPECT_EQ(a.result.totals.rejected_capacity,
            b.result.totals.rejected_capacity);
  EXPECT_EQ(a.result.totals.dropped_deadline,
            b.result.totals.dropped_deadline);
  expect_same_stats(a.result.traffic.latency, b.result.traffic.latency);
  expect_same_stats(a.result.traffic.waiting, b.result.traffic.waiting);
  expect_same_stats(a.result.traffic.peak_utilisation,
                    b.result.traffic.peak_utilisation);
  EXPECT_EQ(a.result.traffic.peak_queue_depth,
            b.result.traffic.peak_queue_depth);
  EXPECT_EQ(a.result.traffic.latency_samples,
            b.result.traffic.latency_samples);
  EXPECT_EQ(a.result.traffic.waiting_samples,
            b.result.traffic.waiting_samples);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(TrafficScenario, BitIdenticalAcrossThreadCountsContactPlan) {
  const RunOutput serial = run_traffic_with(TopologyMode::ContactPlan, nullptr);
  EXPECT_FALSE(serial.trace.empty());
  EXPECT_GT(serial.result.totals.issued, 100u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel =
        run_traffic_with(TopologyMode::ContactPlan, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(TrafficScenario, BitIdenticalAcrossThreadCountsRebuild) {
  // Unlike the fixed-batch engines, traffic windows chunk on the rebuild
  // provider too (no epoch partition needed), and must stay bit-identical.
  const RunOutput serial = run_traffic_with(TopologyMode::Rebuild, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel = run_traffic_with(TopologyMode::Rebuild, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(TrafficScenario, AccountingReconcilesAndCountersMatch) {
  obs::Registry registry;
  const RunOutput out = run_traffic_with(TopologyMode::ContactPlan, nullptr,
                                         &registry);
  const ScenarioResult& r = out.result;
  ASSERT_GT(r.totals.issued, 0u);
  EXPECT_EQ(r.totals.served + r.totals.no_path + r.totals.isolated +
                r.totals.congested + r.totals.rejected_capacity +
                r.totals.dropped_deadline,
            r.totals.issued);
  // Open arrivals have no cross-step identity: no handovers, no em stats.
  EXPECT_EQ(r.handovers, 0u);
  EXPECT_EQ(r.totals.congested, 0u);
  EXPECT_EQ(r.em.memory_occupancy.count(), 0u);
  EXPECT_EQ(r.traffic.peak_utilisation.count(), 10u);  // one per window
  EXPECT_EQ(r.traffic.latency_samples.size(), r.totals.served);
  EXPECT_EQ(r.traffic.waiting_samples.size(), r.totals.served);
  EXPECT_EQ(registry.counter("scenario.requests_issued"), r.totals.issued);
  EXPECT_EQ(registry.counter("scenario.requests_served"), r.totals.served);
  EXPECT_EQ(registry.counter("scenario.requests_rejected_capacity"),
            r.totals.rejected_capacity);
  EXPECT_EQ(registry.counter("scenario.requests_dropped_deadline"),
            r.totals.dropped_deadline);
  EXPECT_EQ(registry.counter("scenario.snapshots"), 10u);
}

TEST(TrafficScenario, SaturationTriggersBackpressureAndDeadlines) {
  QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  // The air-ground network keeps the HAP on every inter-LAN route, so one
  // concurrent pair per node, long services, and a tiny queue and deadline
  // mean nearly every arrival beyond the first must wait, bounce or expire.
  config.traffic_node_capacity = 1;
  config.traffic_service_overhead = 30.0;
  config.traffic_max_queue_delay = 1.0;
  config.traffic_max_backlog = 4;
  const NetworkModel model = core::build_air_ground_model(config);
  const core::Topology topology = core::make_topology(config, model);
  ScenarioConfig sc = quick_traffic_config(config);
  sc.traffic.arrival_rate = 0.2;
  const ScenarioResult r = run_scenario(model, topology.provider(), sc);
  ASSERT_GT(r.totals.issued, 0u);
  ASSERT_GT(r.totals.served, 0u);
  EXPECT_GT(r.totals.dropped_deadline, 0u);
  EXPECT_GT(r.totals.rejected_capacity, 0u);
  EXPECT_LT(r.totals.served, r.totals.issued);
  EXPECT_GT(r.traffic.peak_queue_depth, 0u);
  EXPECT_EQ(r.totals.served + r.totals.no_path + r.totals.isolated +
                r.totals.congested + r.totals.rejected_capacity +
                r.totals.dropped_deadline,
            r.totals.issued);
}

TEST(TrafficScenario, SingleShotModeCarriesNoTrafficState) {
  // The engine refactor must leave the paper's single-shot results without
  // any traffic accounting: disabled summary, zero traffic-only buckets.
  QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  ScenarioConfig sc = config.scenario_config();
  sc.coverage.duration = 14'400.0;
  sc.coverage.step = 120.0;
  sc.request_count = 30;
  sc.request_steps = 10;
  sc.request_step_interval = 1440.0;
  const ScenarioResult r = run_scenario(model, topology.provider(), sc);
  EXPECT_EQ(r.traffic.peak_utilisation.count(), 0u);
  EXPECT_EQ(r.totals.rejected_capacity, 0u);
  EXPECT_EQ(r.totals.dropped_deadline, 0u);
  EXPECT_EQ(r.traffic.latency_samples.size(), 0u);
  EXPECT_EQ(r.totals.issued, 300u);  // 30 requests x 10 snapshots
}

/// The air-ground network on the rebuild provider: every inter-LAN route is
/// ground - HAP - ground, and the HAP never moves.
struct AirGround {
  QntnConfig config;
  NetworkModel model = core::build_air_ground_model(config);
  TopologyBuilder topology{model, config.link_policy()};
};

/// A constant-rate (no diurnal factor) population of `rate` arrivals per
/// second per LAN at capacity 8.
TrafficConfig steady(double rate) {
  TrafficConfig tc;
  tc.arrival_rate = rate;
  tc.diurnal_amplitude = 0.0;
  tc.node_capacity = 8;
  return tc;
}

/// Serve the window [0, window) on a fresh engine.
ServeStepResult serve_window(const NetworkModel& model,
                             const TopologyProvider& topology,
                             const TrafficConfig& tc, double window,
                             bool record = false) {
  TrafficEngine engine(model, topology, tc, window, record);
  return engine.serve_step(0, 0.0);
}

/// ~0.2 arrivals/s across the three LANs: ~120 in a 600-s window.
constexpr double kLightRate = 0.2 / 3.0;

TEST(Traffic, NoArrivalsNoActivity) {
  const AirGround ag;
  const ServeStepResult out =
      serve_window(ag.model, ag.topology, steady(0.0), 600.0, true);
  EXPECT_EQ(out.outcome.issued, 0u);
  EXPECT_EQ(out.outcome.served, 0u);
  EXPECT_TRUE(out.outcome.reconciles());
  EXPECT_TRUE(out.requests.empty());
  EXPECT_EQ(out.traffic.latency.count(), 0u);
  EXPECT_EQ(out.traffic.peak_utilisation.max(), 0.0);
}

TEST(Traffic, DeterministicForFixedSeed) {
  // A window is a pure function of (step, t, config): two engines agree,
  // and one engine serving the same step again after another agrees too.
  const AirGround ag;
  TrafficEngine a(ag.model, ag.topology, steady(kLightRate), 600.0, false);
  TrafficEngine b(ag.model, ag.topology, steady(kLightRate), 600.0, false);
  const ServeStepResult first = a.serve_step(3, 1'800.0);
  (void)a.serve_step(4, 2'400.0);
  for (const ServeStepResult& other :
       {b.serve_step(3, 1'800.0), a.serve_step(3, 1'800.0)}) {
    EXPECT_EQ(other.outcome.issued, first.outcome.issued);
    EXPECT_EQ(other.outcome.served, first.outcome.served);
    EXPECT_EQ(other.traffic.latency_samples, first.traffic.latency_samples);
    EXPECT_EQ(other.outcome.fidelity.mean(), first.outcome.fidelity.mean());
  }
}

TEST(Traffic, LightLoadOnAirGroundServesEverything) {
  const AirGround ag;
  const ServeStepResult out =
      serve_window(ag.model, ag.topology, steady(kLightRate), 600.0);
  ASSERT_GT(out.outcome.issued, 50u);  // ~120 expected
  EXPECT_EQ(out.outcome.served, out.outcome.issued);
  EXPECT_EQ(out.outcome.no_path, 0u);
  EXPECT_EQ(out.outcome.dropped_deadline, 0u);
  // Latency is dominated by the configured overhead plus ~ms of light time.
  EXPECT_GT(out.traffic.latency.mean(), 0.01);
  EXPECT_LT(out.traffic.latency.mean(), 0.02);
  EXPECT_EQ(out.traffic.waiting.max(), 0.0);
}

TEST(Traffic, PercentilesBackedByOneSamplePerServedRequest) {
  QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  config.day_duration = 600.0;
  config.request_steps = 1;
  config.traffic_arrival_rate = kLightRate;
  config.traffic_diurnal_amplitude = 0.0;
  const NetworkModel model = core::build_air_ground_model(config);
  const core::Topology topology = core::make_topology(config, model);
  const ScenarioResult r =
      run_scenario(model, topology.provider(), config.scenario_config());
  ASSERT_GT(r.totals.served, 0u);
  EXPECT_EQ(r.traffic.latency_samples.size(), r.totals.served);
  EXPECT_EQ(r.traffic.waiting_samples.size(), r.totals.served);
  // Tails are ordered and bracketed by the running stats' extremes.
  const double p50 = percentile(r.traffic.latency_samples, 0.50);
  const double p95 = percentile(r.traffic.latency_samples, 0.95);
  const double p99 = percentile(r.traffic.latency_samples, 0.99);
  EXPECT_LE(r.traffic.latency.min(), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, r.traffic.latency.max());
  const core::ArchitectureMetrics m = core::evaluate_air_ground(config);
  EXPECT_EQ(m.latency_p99, p99);
  EXPECT_LE(m.waiting_p50, m.waiting_p99);
  // Empty distributions report 0 instead of throwing.
  config.traffic_arrival_rate = 0.0;
  const core::ArchitectureMetrics idle = core::evaluate_air_ground(config);
  EXPECT_EQ(idle.latency_p99, 0.0);
  EXPECT_EQ(idle.waiting_p50, 0.0);
}

TEST(Traffic, AccountingAlwaysBalances) {
  const AirGround ag;
  for (const double rate : {0.5, 5.0, 50.0}) {
    SCOPED_TRACE(rate);
    const ServeStepResult out =
        serve_window(ag.model, ag.topology, steady(rate / 3.0), 120.0);
    EXPECT_TRUE(out.outcome.reconciles());
    EXPECT_EQ(out.traffic.latency_samples.size(), out.outcome.served);
  }
}

TEST(Traffic, OverloadSaturatesAndQueues) {
  const AirGround ag;
  TrafficConfig tc = steady(200.0 / 3.0);  // far above the HAP's capacity
  tc.node_capacity = 2;
  tc.service_overhead = 0.05;
  const ServeStepResult out = serve_window(ag.model, ag.topology, tc, 120.0);
  EXPECT_GT(out.outcome.dropped_deadline, 0u);
  EXPECT_LT(out.outcome.served_fraction(), 0.5);
  // Throughput is pinned near capacity / service_time = 2 / 0.05 = 40/s
  // (the HAP is on every route).
  EXPECT_NEAR(static_cast<double>(out.outcome.served) / 120.0, 40.0, 8.0);
  EXPECT_GT(out.traffic.waiting.max(), 0.0);
}

TEST(Traffic, QueueingCostsFidelityThroughMemory) {
  const AirGround ag;
  TrafficConfig relaxed = steady(kLightRate);
  TrafficConfig loaded = steady(100.0 / 3.0);
  loaded.node_capacity = 2;
  loaded.service_overhead = 0.05;
  loaded.max_queue_delay = 2.0;
  loaded.memory.t1 = 0.5;
  loaded.memory.t2 = 0.2;
  relaxed.memory = loaded.memory;
  const ServeStepResult fast =
      serve_window(ag.model, ag.topology, relaxed, 600.0);
  const ServeStepResult slow = serve_window(ag.model, ag.topology, loaded, 60.0);
  ASSERT_GT(slow.outcome.served, 0u);
  EXPECT_GT(slow.traffic.waiting.mean(), fast.traffic.waiting.mean());
  EXPECT_LT(slow.outcome.fidelity.mean(), fast.outcome.fidelity.mean());
}

TEST(Traffic, GroundOnlyNetworkDropsEverythingAsNoPath) {
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const ServeStepResult out =
      serve_window(model, topology, steady(kLightRate), 600.0);
  ASSERT_GT(out.outcome.issued, 0u);
  EXPECT_EQ(out.outcome.served, 0u);
  EXPECT_EQ(out.outcome.no_path, out.outcome.issued);
}

TEST(Traffic, RejectsBadConfig) {
  const AirGround ag;
  TrafficConfig bad = steady(kLightRate);
  bad.node_capacity = 0;
  EXPECT_THROW(TrafficEngine(ag.model, ag.topology, bad, 600.0, false),
               PreconditionError);
  // The serving window is the scenario's snapshot interval; it must be > 0.
  EXPECT_THROW(
      TrafficEngine(ag.model, ag.topology, steady(kLightRate), 0.0, false),
      PreconditionError);
}

TEST(TrafficEngine, FullAmplitudeSilencesNightWindows) {
  // At diurnal_amplitude = 1 a night-time LAN arrives at rate 0. The three
  // Tennessee LANs share a longitude band, so a night window issues nothing
  // while a daytime window at the same rate stays busy.
  QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  TrafficConfig tc = config.traffic_options();
  tc.arrival_rate = 0.05;
  tc.diurnal_amplitude = 1.0;
  const geo::SunModel sun = tc.sun;
  const geo::Geodetic site = model.node(model.lan_nodes(0).front()).position;
  double t_day = -1.0;
  double t_night = -1.0;
  for (double t = 0.0; t < 86'400.0; t += 1800.0) {
    if (sun.solar_elevation(site, t) > 0.0) {
      if (t_day < 0.0) t_day = t;
    } else if (t_night < 0.0) {
      t_night = t;
    }
  }
  ASSERT_GE(t_day, 0.0);
  ASSERT_GE(t_night, 0.0);
  TrafficEngine engine(model, topology.provider(), tc, 1440.0, false);
  const ServeStepResult day = engine.serve_step(0, t_day);
  const ServeStepResult night = engine.serve_step(1, t_night);
  EXPECT_GT(day.outcome.issued, 0u);
  EXPECT_EQ(night.outcome.issued, 0u);
}

/// Two four-node ground LANs joined only through two HAP relays: every
/// inter-LAN route is ground - relay - ground, and the first relay is the
/// better one, so a route through the second is always a saturation detour.
class TwoRelayTopology final : public TopologyProvider {
 public:
  explicit TwoRelayTopology(const NetworkModel& model) {
    for (std::size_t i = 0; i < model.node_count(); ++i) graph_.add_node();
    for (std::size_t lan = 0; lan < model.lan_count(); ++lan) {
      for (const net::NodeId ground : model.lan_nodes(lan)) {
        graph_.add_edge(ground, model.hap_ids()[0], 0.9);
        graph_.add_edge(ground, model.hap_ids()[1], 0.6);
      }
    }
  }

  [[nodiscard]] net::Graph graph_at(double t) const override {
    (void)t;
    return graph_;
  }

 private:
  net::Graph graph_;
};

NetworkModel two_relay_model() {
  const channel::OpticalTerminal terminal;
  NetworkModel model;
  for (const double lon : {-86.0, -84.0}) {
    std::vector<geo::Geodetic> sites;
    for (int i = 0; i < 4; ++i) {
      sites.push_back(geo::Geodetic::from_degrees(36.0 + 0.01 * i, lon));
    }
    model.add_lan(lon < -85.0 ? "west" : "east", sites, terminal);
  }
  model.add_hap("relay-a", geo::Geodetic::from_degrees(36.0, -85.0, 20e3),
                terminal);
  model.add_hap("relay-b", geo::Geodetic::from_degrees(36.1, -85.0, 20e3),
                terminal);
  return model;
}

TEST(TrafficEngine, SaturatedRelayDetoursThroughTheOther) {
  // Capacity 1 and services far longer than the 100-s window: everything
  // that starts in the window is still in service when the window's last
  // arrival comes. The first arrival takes relay a; the first later one
  // with disjoint endpoints finds relay a saturated and must detour through
  // relay b; the next disjoint one finds both relays busy and must wait.
  const NetworkModel model = two_relay_model();
  const TwoRelayTopology topology(model);
  const net::NodeId relay_a = model.hap_ids()[0];
  const net::NodeId relay_b = model.hap_ids()[1];
  TrafficConfig tc;
  tc.node_capacity = 1;
  tc.service_overhead = 1'000.0;
  tc.arrival_rate = 0.1;
  tc.diurnal_amplitude = 0.0;
  for (const double deadline : {5'000.0, 500.0}) {
    SCOPED_TRACE("deadline " + std::to_string(deadline));
    tc.max_queue_delay = deadline;
    obs::Registry registry;
    const obs::ScopedRegistry ambient(&registry);
    TrafficEngine engine(model, topology, tc, 100.0, true);
    const ServeStepResult out = engine.serve_step(0, 0.0);
    const auto& records = out.requests;
    ASSERT_GE(records.size(), 3u);

    const auto disjoint = [&](std::size_t i, std::size_t j) {
      return records[i].source != records[j].source &&
             records[i].source != records[j].destination &&
             records[i].destination != records[j].source &&
             records[i].destination != records[j].destination;
    };
    std::size_t second = 1;
    while (second < records.size() && !disjoint(0, second)) ++second;
    std::size_t third = second + 1;
    while (third < records.size() &&
           !(disjoint(0, third) && disjoint(second, third))) {
      ++third;
    }
    ASSERT_LT(third, records.size());

    EXPECT_EQ(records[0].disposition, ServeDisposition::Served);
    EXPECT_EQ(records[0].relay, relay_a);
    EXPECT_EQ(records[0].waiting, 0.0);
    EXPECT_EQ(records[second].disposition, ServeDisposition::Served);
    EXPECT_EQ(records[second].relay, relay_b);
    EXPECT_EQ(records[second].waiting, 0.0);
    if (deadline > tc.service_overhead) {
      EXPECT_EQ(records[third].disposition, ServeDisposition::Served);
      EXPECT_GT(records[third].waiting, tc.service_overhead / 2);
    } else {
      EXPECT_EQ(records[third].disposition,
                ServeDisposition::DroppedDeadline);
    }
    // The detour was built from a masked tree; the both-busy attempts
    // were settled by the reachability gate.
    EXPECT_GT(registry.counter("sim.reroute_trees"), 0u);
    EXPECT_GT(registry.counter("sim.reroute_gated"), 0u);
  }
}

TEST(TrafficEngine, EveryTreeIsASourceTreeOrAMaskedReroute) {
  // traffic_congested's serving keys on a small constellation: capacity 1,
  // 250-ms services, inverse-eta routes rebuilt every window. Each window
  // builds one tree per source with an arrival that got past the isolation
  // check and had a path; every other tree is a masked reroute, and
  // saturated attempts the reachability gate settled build none.
  QntnConfig config;
  config.serving_mode = core::ServingMode::Traffic;
  config.topology_mode = TopologyMode::ContactPlan;
  config.traffic_arrival_rate = 1.0;
  config.traffic_node_capacity = 1;
  config.traffic_service_overhead = 0.25;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  obs::Registry registry;
  const obs::ScopedRegistry ambient(&registry);
  TrafficEngine engine(model, topology.provider(), config.traffic_options(),
                       30.0, true);
  std::size_t source_trees = 0;
  for (std::size_t step = 0; step < 24; ++step) {
    const ServeStepResult out =
        engine.serve_step(step, static_cast<double>(step) * 3'600.0);
    std::vector<net::NodeId> sources;
    for (const RequestRecord& rec : out.requests) {
      if (rec.disposition != ServeDisposition::Isolated &&
          rec.disposition != ServeDisposition::NoPath) {
        sources.push_back(rec.source);
      }
    }
    std::sort(sources.begin(), sources.end());
    source_trees += static_cast<std::size_t>(
        std::unique(sources.begin(), sources.end()) - sources.begin());
  }
  EXPECT_GT(registry.counter("sim.reroute_gated"), 0u);
  EXPECT_EQ(registry.counter("net.bf_trees"),
            source_trees + registry.counter("sim.reroute_trees"));
}

/// Air-ground arrivals whose service outlasts the window: a served pair
/// holds its route's capacity for the rest of the window, so per-node
/// capacity caps the pairs a node takes part in per window (~50 arrivals
/// here).
TrafficConfig held_for_window(std::size_t capacity) {
  TrafficConfig tc = steady(50.0 / 300.0);
  tc.node_capacity = capacity;
  tc.service_overhead = 1'000.0;
  return tc;
}

TEST(Capacity, UnlimitedEnoughCapacityMatchesBaseline) {
  // Metamorphic relation on both providers: with capacity at or above a
  // window's arrivals, no deadline and an ample backlog, nothing is lost to
  // capacity or to the queue, nothing waits, and every arrival is served
  // on exactly the route the unconstrained router picks. The same arrivals
  // at capacity 1 do lose requests, so the relation is not vacuous.
  for (const TopologyMode mode :
       {TopologyMode::Rebuild, TopologyMode::ContactPlan}) {
    SCOPED_TRACE(mode == TopologyMode::Rebuild ? "rebuild" : "contact plan");
    QntnConfig config;
    config.serving_mode = core::ServingMode::Traffic;
    config.topology_mode = mode;
    const NetworkModel model = core::build_space_ground_model(config, 36);
    const core::Topology topology = core::make_topology(config, model);
    ScenarioConfig sc = quick_traffic_config(config);
    sc.traffic.arrival_rate = 0.5;
    sc.traffic.service_overhead = 0.25;
    sc.traffic.node_capacity = 1'000'000;
    sc.traffic.max_queue_delay = std::numeric_limits<double>::infinity();
    sc.traffic.max_backlog = 1'000'000;
    const ScenarioResult r = run_scenario(model, topology.provider(), sc);
    ASSERT_GT(r.totals.served, 0u);
    EXPECT_LT(r.totals.issued / sc.request_steps, sc.traffic.node_capacity);
    EXPECT_EQ(r.totals.rejected_capacity, 0u);
    EXPECT_EQ(r.totals.dropped_deadline, 0u);
    EXPECT_EQ(r.traffic.waiting.max(), 0.0);

    TrafficEngine engine(model, topology.provider(), sc.traffic,
                         sc.request_step_interval, true);
    std::size_t served = 0;
    for (std::size_t step = 0; step < sc.request_steps; ++step) {
      const double t = static_cast<double>(step) * sc.request_step_interval;
      const ServeStepResult out = engine.serve_step(step, t);
      const net::Graph graph = topology.provider().graph_at(t);
      for (const RequestRecord& rec : out.requests) {
        const auto route =
            net::bellman_ford(graph, rec.source, rec.destination, sc.metric);
        ASSERT_EQ(rec.disposition == ServeDisposition::Served,
                  route.has_value());
        if (!route.has_value()) continue;
        ++served;
        EXPECT_EQ(rec.transmissivity, route->transmissivity);
        EXPECT_EQ(rec.hops + 1, route->path.size());
      }
    }
    EXPECT_EQ(served, r.totals.served);

    sc.traffic.node_capacity = 1;
    sc.traffic.max_queue_delay = 0.5;
    const ScenarioResult tight = run_scenario(model, topology.provider(), sc);
    EXPECT_LT(tight.totals.served, r.totals.served);
  }
}

TEST(Capacity, HapSaturationCapsService) {
  // Every air-ground route relays through the single HAP; with capacity C
  // the HAP can take part in at most C pairs of the window.
  const AirGround ag;
  const ServeStepResult out =
      serve_window(ag.model, ag.topology, held_for_window(10), 300.0);
  ASSERT_GT(out.outcome.issued, 10u);
  EXPECT_EQ(out.outcome.served, 10u);
  EXPECT_EQ(out.outcome.no_path, 0u);
  EXPECT_EQ(out.outcome.rejected_capacity + out.outcome.dropped_deadline,
            out.outcome.issued - 10);
  EXPECT_EQ(out.traffic.peak_utilisation.max(), 1.0);
}

TEST(Capacity, OutcomeReconciles) {
  // The ServeOutcome identity pins capacity-limited serving to the common
  // accounting shape; the engine never produces the em-only bucket, and
  // every endpoint of the air-ground network is linked.
  const AirGround ag;
  TrafficEngine engine(ag.model, ag.topology, held_for_window(7), 300.0,
                       false);
  for (std::size_t step = 0; step < 5; ++step) {
    const ServeStepResult out =
        engine.serve_step(step, static_cast<double>(step) * 300.0);
    EXPECT_TRUE(out.outcome.reconciles());
    EXPECT_EQ(out.outcome.served, 7u);
    EXPECT_EQ(out.outcome.isolated, 0u);
    EXPECT_EQ(out.outcome.congested, 0u);
  }
}

TEST(Capacity, DisconnectedRequestsAreNoPathNotCapacity) {
  // The ground-only network has no inter-LAN route: requests are no-path
  // even at capacity 1 with claims that would saturate every node.
  const QntnConfig config;
  const NetworkModel model = core::build_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const ServeStepResult out =
      serve_window(model, topology, held_for_window(1), 300.0);
  ASSERT_GT(out.outcome.issued, 0u);
  EXPECT_EQ(out.outcome.served, 0u);
  EXPECT_EQ(out.outcome.rejected_capacity, 0u);
  EXPECT_EQ(out.outcome.dropped_deadline, 0u);
  EXPECT_EQ(out.outcome.no_path, out.outcome.issued);
  EXPECT_TRUE(out.outcome.reconciles());
}

TEST(Capacity, PeakUtilisationZeroWithoutServedWork) {
  // Relays that never carry a pair consume no capacity: an empty window and
  // an all-unreachable window both leave peak utilisation at 0.
  const AirGround ag;
  EXPECT_EQ(serve_window(ag.model, ag.topology, steady(0.0), 300.0)
                .traffic.peak_utilisation.max(),
            0.0);
  const NetworkModel ground = core::build_ground_model(ag.config);
  const TopologyBuilder topology(ground, ag.config.link_policy());
  const ServeStepResult blocked =
      serve_window(ground, topology, held_for_window(1), 300.0);
  ASSERT_GT(blocked.outcome.no_path, 0u);
  EXPECT_EQ(blocked.traffic.peak_utilisation.max(), 0.0);
}

/// Records of a two-relay window at capacity 1 with services that outlast
/// it (see TrafficEngine.SaturatedRelayDetoursThroughTheOther).
ServeStepResult two_relay_window(const NetworkModel& model,
                                 const TopologyProvider& topology) {
  TrafficConfig tc;
  tc.node_capacity = 1;
  tc.service_overhead = 1'000.0;
  tc.arrival_rate = 0.1;
  tc.diurnal_amplitude = 0.0;
  return serve_window(model, topology, tc, 100.0, true);
}

TEST(Capacity, ReroutesAroundSaturatedRelays) {
  // The first arrival rides the better relay (eta 0.9 per hop); the first
  // later arrival with disjoint endpoints finds it saturated and is served
  // over the worse relay (eta 0.6 per hop).
  const NetworkModel model = two_relay_model();
  const TwoRelayTopology topology(model);
  const ServeStepResult out = two_relay_window(model, topology);
  const auto& records = out.requests;
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].disposition, ServeDisposition::Served);
  EXPECT_NEAR(records[0].transmissivity, 0.9 * 0.9, 1e-12);
  std::size_t second = 1;
  while (second < records.size() &&
         (records[second].source == records[0].source ||
          records[second].source == records[0].destination ||
          records[second].destination == records[0].source ||
          records[second].destination == records[0].destination)) {
    ++second;
  }
  ASSERT_LT(second, records.size());
  EXPECT_EQ(records[second].disposition, ServeDisposition::Served);
  EXPECT_NEAR(records[second].transmissivity, 0.6 * 0.6, 1e-12);
  EXPECT_EQ(records[second].waiting, 0.0);
}

TEST(Capacity, SaturationReroutingIsDeterministic) {
  // Who gets the better relay depends only on arrival order, so repeated
  // windows agree record for record.
  const NetworkModel model = two_relay_model();
  const TwoRelayTopology topology(model);
  const ServeStepResult first = two_relay_window(model, topology);
  const ServeStepResult second = two_relay_window(model, topology);
  EXPECT_EQ(first.traffic.peak_utilisation.max(), 1.0);
  EXPECT_EQ(second.traffic.peak_utilisation.max(),
            first.traffic.peak_utilisation.max());
  EXPECT_EQ(second.outcome.served, first.outcome.served);
  EXPECT_EQ(second.outcome.transmissivity.mean(),
            first.outcome.transmissivity.mean());
  EXPECT_EQ(second.outcome.fidelity.mean(), first.outcome.fidelity.mean());
  ASSERT_EQ(second.requests.size(), first.requests.size());
  for (std::size_t i = 0; i < first.requests.size(); ++i) {
    EXPECT_EQ(second.requests[i].disposition, first.requests[i].disposition);
    EXPECT_EQ(second.requests[i].relay, first.requests[i].relay);
    EXPECT_EQ(second.requests[i].waiting, first.requests[i].waiting);
  }
}

TEST(Capacity, RejectsZeroCapacity) {
  TrafficConfig zero;
  zero.node_capacity = 0;
  try {
    zero.validate();
    FAIL() << "zero node capacity must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos)
        << e.what();
  }
}

TEST(TrafficConfigValidate, RejectsDegenerateParameters) {
  TrafficConfig good;
  good.validate();  // defaults are fine
  TrafficConfig bad = good;
  bad.max_queue_delay = 0.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = good;
  bad.arrival_rate = -1.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = good;
  bad.diurnal_amplitude = 1.5;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = good;
  bad.max_backlog = 0;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

TEST(TrafficConfigValidate, RejectsNonFiniteRateAndOverhead) {
  // Validation only: no engine ever runs on these configs.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const TrafficConfig good;
  for (const double value : {kInf, kNan}) {
    TrafficConfig bad = good;
    bad.arrival_rate = value;
    try {
      bad.validate();
      FAIL() << "non-finite arrival rate must throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("arrival_rate"), std::string::npos)
          << e.what();
    }
    bad = good;
    bad.service_overhead = value;
    try {
      bad.validate();
      FAIL() << "non-finite service overhead must throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("service_overhead"),
                std::string::npos)
          << e.what();
    }
  }
  TrafficConfig patient = good;
  patient.max_queue_delay = kInf;
  EXPECT_NO_THROW(patient.validate());
}

}  // namespace
}  // namespace qntn::sim
