#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"

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
  expect_same_stats(a.result.fidelity, b.result.fidelity);
  expect_same_stats(a.result.transmissivity, b.result.transmissivity);
  expect_same_stats(a.result.hops, b.result.hops);
  EXPECT_EQ(a.result.requests_issued, b.result.requests_issued);
  EXPECT_EQ(a.result.requests_served, b.result.requests_served);
  EXPECT_EQ(a.result.requests_no_path, b.result.requests_no_path);
  EXPECT_EQ(a.result.requests_isolated, b.result.requests_isolated);
  EXPECT_EQ(a.result.requests_congested, b.result.requests_congested);
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
  EXPECT_EQ(r.requests_issued, 300u);  // 30 requests x 10 snapshots
  EXPECT_EQ(r.requests_issued, r.requests_served + r.requests_no_path +
                                   r.requests_isolated + r.requests_congested);
  // Latency percentiles see exactly one sample per served request.
  EXPECT_EQ(r.em.latency_samples.size(), r.requests_served);
  EXPECT_EQ(r.em.latency.count(), r.requests_served);
  // One occupancy observation per snapshot.
  EXPECT_EQ(r.em.memory_occupancy.count(), 10u);
  EXPECT_EQ(registry.counter("em.requests_served"), r.requests_served);
  EXPECT_EQ(registry.counter("scenario.requests_congested"),
            r.requests_congested);
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
  EXPECT_EQ(r.requests_congested, 0u);
  EXPECT_EQ(r.em.pairs_consumed, 0u);
  EXPECT_TRUE(r.em.latency_samples.empty());
}

}  // namespace
}  // namespace qntn::sim
