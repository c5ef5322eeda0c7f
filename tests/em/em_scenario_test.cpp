#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/requests.hpp"
#include "sim/scenario.hpp"
#include "sim/serving_engine.hpp"

/// Determinism contract of the entanglement-management serving mode
/// (DESIGN.md §11): run_scenario with em enabled must produce a
/// ScenarioResult — including every em statistic and the trace stream —
/// bitwise identical across thread counts. EXPECT_EQ on doubles below is
/// deliberate, exactly as in parallel_scenario_test.cpp.

namespace qntn::sim {
namespace {

using core::QntnConfig;
using core::TopologyMode;

struct RunOutput {
  ScenarioResult result;
  std::string trace;
};

RunOutput run_em(TopologyMode mode, ThreadPool* pool,
                 obs::Registry* registry = nullptr) {
  QntnConfig config;
  config.topology_mode = mode;
  config.serving_mode = core::ServingMode::Entanglement;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  RunOutput out;
  std::ostringstream trace_stream;
  obs::TraceSink trace(trace_stream, obs::TraceLevel::Requests);
  ScenarioConfig sc = config.scenario_config();
  sc.coverage.duration = 14'400.0;  // 4 hours
  sc.coverage.step = 120.0;
  sc.request_count = 30;
  sc.request_steps = 10;
  sc.request_step_interval = 1440.0;
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
  expect_same_stats(a.result.served_per_step, b.result.served_per_step);
  expect_same_stats(a.result.totals.fidelity, b.result.totals.fidelity);
  expect_same_stats(a.result.totals.transmissivity, b.result.totals.transmissivity);
  expect_same_stats(a.result.totals.hops, b.result.totals.hops);
  EXPECT_EQ(a.result.totals.issued, b.result.totals.issued);
  EXPECT_EQ(a.result.totals.served, b.result.totals.served);
  EXPECT_EQ(a.result.totals.no_path, b.result.totals.no_path);
  EXPECT_EQ(a.result.totals.isolated, b.result.totals.isolated);
  EXPECT_EQ(a.result.totals.congested, b.result.totals.congested);
  EXPECT_EQ(a.result.handovers, b.result.handovers);

  EXPECT_EQ(a.result.em.swaps, b.result.em.swaps);
  EXPECT_EQ(a.result.em.purification_rounds, b.result.em.purification_rounds);
  EXPECT_EQ(a.result.em.pairs_consumed, b.result.em.pairs_consumed);
  EXPECT_EQ(a.result.em.slo_met, b.result.em.slo_met);
  EXPECT_EQ(a.result.em.spilled, b.result.em.spilled);
  expect_same_stats(a.result.em.memory_occupancy, b.result.em.memory_occupancy);
  expect_same_stats(a.result.em.swap_depth, b.result.em.swap_depth);
  expect_same_stats(a.result.em.latency, b.result.em.latency);
  EXPECT_EQ(a.result.em.latency_samples, b.result.em.latency_samples);

  EXPECT_EQ(a.trace, b.trace);
}

TEST(EmScenario, BitIdenticalAcrossThreadCountsContactPlan) {
  const RunOutput serial = run_em(TopologyMode::ContactPlan, nullptr);
  // The em fold ran: one occupancy observation per snapshot.
  EXPECT_EQ(serial.result.em.memory_occupancy.count(), 10u);
  EXPECT_FALSE(serial.trace.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel = run_em(TopologyMode::ContactPlan, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(EmScenario, BitIdenticalAcrossThreadCountsRebuild) {
  // The rebuild provider has no epoch partition (serve sees kNoEpoch and
  // cannot cache routes); a pool must leave the serial path untouched.
  const RunOutput serial = run_em(TopologyMode::Rebuild, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel = run_em(TopologyMode::Rebuild, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(EmScenario, RequestAccountingIsComplete) {
  ThreadPool pool(4);
  obs::Registry registry;
  const RunOutput out = run_em(TopologyMode::ContactPlan, &pool, &registry);
  const ScenarioResult& r = out.result;
  EXPECT_EQ(r.totals.issued, 300u);  // 30 requests x 10 snapshots
  EXPECT_EQ(r.totals.issued, r.totals.served + r.totals.no_path +
                                   r.totals.isolated + r.totals.congested);
  // Latency percentiles see exactly one sample per served request.
  EXPECT_EQ(r.em.latency_samples.size(), r.totals.served);
  EXPECT_EQ(r.em.latency.count(), r.totals.served);
  // One occupancy observation per snapshot.
  EXPECT_EQ(r.em.memory_occupancy.count(), 10u);
  EXPECT_EQ(registry.counter("em.requests_served"), r.totals.served);
  EXPECT_EQ(registry.counter("scenario.requests_congested"),
            r.totals.congested);
}

TEST(EmScenario, SingleShotLeavesEmStatsUntouched) {
  QntnConfig config;
  config.topology_mode = TopologyMode::ContactPlan;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  ScenarioConfig sc = config.scenario_config();
  sc.coverage.duration = 14'400.0;
  sc.coverage.step = 120.0;
  sc.request_count = 30;
  sc.request_steps = 10;
  sc.request_step_interval = 1440.0;
  const ScenarioResult r = run_scenario(model, topology.provider(), sc);
  EXPECT_EQ(r.em.memory_occupancy.count(), 0u);
  EXPECT_EQ(r.totals.congested, 0u);
  EXPECT_EQ(r.em.pairs_consumed, 0u);
  EXPECT_TRUE(r.em.latency_samples.empty());
}

/// Metamorphic relation between the two fixed-batch engines: with one
/// hop-count candidate route, no purification, and memories and relays too
/// large to run dry, the entanglement manager is single-shot routing with
/// extra bookkeeping. Both engines must then put every request in the same
/// served / no_path / isolated bucket at every step, and serve it over the
/// same number of hops (the shortest route is unique in length, not in
/// relays, so relays are not compared).
void expect_em_matches_single_shot(TopologyMode mode) {
  QntnConfig config;
  config.topology_mode = mode;
  // Lossy fiber drops some LAN links below the threshold, so some ground
  // nodes are isolated whenever no satellite sees them: all three buckets
  // occur.
  config.fiber_attenuation_db_per_km = 2.0;
  const NetworkModel model = core::build_space_ground_model(config, 36);
  const core::Topology topology = core::make_topology(config, model);
  Rng rng(config.request_seed);
  const std::vector<Request> requests = generate_requests(model, 30, rng);

  ScenarioConfig single = config.scenario_config();
  single.serving_mode = ServingMode::SingleShot;
  single.metric = net::CostMetric::HopCount;
  ScenarioConfig em = single;
  em.serving_mode = ServingMode::Entanglement;
  em.em.metric = net::CostMetric::HopCount;
  em.em.k_paths = 1;
  em.em.purify.fidelity_slo = 0.0;
  em.em.pool.slots_per_node = 1u << 14;
  em.em.pool.max_storage = 20.0;  // 400 buffered pairs per link at 50 ms
  em.em.node_capacity = 1u << 14;

  constexpr double kInterval = 1800.0;  // 48 steps span the day
  const auto single_engine = make_serving_engine(
      model, topology.provider(), requests, single, kInterval, false);
  const auto em_engine = make_serving_engine(model, topology.provider(),
                                             requests, em, kInterval, false);
  ServeOutcome total;
  for (std::size_t step = 0; step < 48; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    const double t = static_cast<double>(step) * kInterval;
    const ServeStepResult a = single_engine->serve_step(step, t);
    const ServeStepResult b = em_engine->serve_step(step, t);
    // The relation only holds while nothing runs dry.
    ASSERT_EQ(b.outcome.congested, 0u);
    EXPECT_EQ(b.outcome.issued, a.outcome.issued);
    EXPECT_EQ(b.outcome.served, a.outcome.served);
    EXPECT_EQ(b.outcome.no_path, a.outcome.no_path);
    EXPECT_EQ(b.outcome.isolated, a.outcome.isolated);
    ASSERT_EQ(a.requests.size(), requests.size());
    ASSERT_EQ(b.requests.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(b.requests[i].disposition, a.requests[i].disposition)
          << "request " << i;
      EXPECT_EQ(b.requests[i].hops, a.requests[i].hops) << "request " << i;
    }
    total.merge(a.outcome);
  }
  // Guard: every bucket of the relation was exercised.
  EXPECT_GT(total.served, 0u);
  EXPECT_GT(total.no_path, 0u);
  EXPECT_GT(total.isolated, 0u);
}

TEST(EmScenario, UnboundedEmMatchesSingleShotPerStepRebuild) {
  expect_em_matches_single_shot(TopologyMode::Rebuild);
}

TEST(EmScenario, UnboundedEmMatchesSingleShotPerStepContactPlan) {
  expect_em_matches_single_shot(TopologyMode::ContactPlan);
}

}  // namespace
}  // namespace qntn::sim
