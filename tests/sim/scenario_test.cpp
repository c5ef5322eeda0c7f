#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/requests.hpp"
#include "sim/serving_engine.hpp"

namespace qntn::sim {
namespace {

using core::QntnConfig;

ScenarioConfig quick_config(const QntnConfig& config) {
  ScenarioConfig sc = config.scenario_config();
  sc.coverage.duration = 14'400.0;  // 4 hours
  sc.coverage.step = 120.0;
  sc.request_count = 30;
  sc.request_steps = 10;
  sc.request_step_interval = 1440.0;
  return sc;
}

TEST(Scenario, AirGroundFullService) {
  const QntnConfig config;
  const NetworkModel model = core::build_air_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  const ScenarioResult result =
      run_scenario(model, topology, quick_config(config));
  EXPECT_DOUBLE_EQ(result.coverage.percent, 100.0);
  EXPECT_DOUBLE_EQ(result.served_fraction, 1.0);
  EXPECT_GT(result.totals.fidelity.mean(), 0.9);
  EXPECT_EQ(result.totals.fidelity.count(), 300u);  // 30 requests x 10 steps
  // A static topology serves identically at every step.
  EXPECT_DOUBLE_EQ(result.served_per_step.min(), result.served_per_step.max());
}

TEST(Scenario, SpaceGroundPartialService) {
  const QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const TopologyBuilder topology(model, config.link_policy());
  const ScenarioResult result =
      run_scenario(model, topology, quick_config(config));
  EXPECT_LT(result.coverage.percent, 100.0);
  EXPECT_LT(result.served_fraction, 1.0);
  // Every served request meets the fidelity the threshold guarantees for a
  // two-hop FSO relay: eta_path >= threshold^2.
  if (result.totals.fidelity.count() > 0) {
    const double floor = quantum::bell_fidelity_after_damping(
        0.7 * 0.7, quantum::FidelityConvention::Uhlmann);
    EXPECT_GE(result.totals.fidelity.min(), floor - 1e-9);
  }
}

TEST(Scenario, StatsAggregateAcrossSteps) {
  const QntnConfig config;
  const NetworkModel model = core::build_air_ground_model(config);
  const TopologyBuilder topology(model, config.link_policy());
  ScenarioConfig sc = quick_config(config);
  sc.request_steps = 4;
  const ScenarioResult result = run_scenario(model, topology, sc);
  EXPECT_EQ(result.served_per_step.count(), 4u);
  EXPECT_EQ(result.totals.fidelity.count(), 30u * 4u);
  EXPECT_EQ(result.totals.hops.count(), result.totals.fidelity.count());
}

TEST(Scenario, OversizedStepIntervalIsClampedToTheDay) {
  // Regression: an interval that walks the snapshots past the scenario day
  // used to sample ephemerides beyond their span. run_scenario must clamp
  // it (with a warning + counter) to exactly the explicit tiling.
  const QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const TopologyBuilder topology(model, config.link_policy());

  ScenarioConfig oversized = quick_config(config);
  oversized.request_step_interval = 5'000.0;  // 10 x 5000 s >> 14400 s day
  obs::Registry registry;
  oversized.registry = &registry;
  const ScenarioResult clamped = run_scenario(model, topology, oversized);

  ScenarioConfig explicit_tiling = quick_config(config);
  explicit_tiling.request_step_interval = 1'440.0;  // 14400 / 10 exactly
  const ScenarioResult reference =
      run_scenario(model, topology, explicit_tiling);

  EXPECT_EQ(registry.counter("scenario.interval_clamped"), 1u);
  EXPECT_DOUBLE_EQ(clamped.served_fraction, reference.served_fraction);
  EXPECT_DOUBLE_EQ(clamped.totals.fidelity.mean(), reference.totals.fidelity.mean());
  EXPECT_EQ(clamped.totals.served, reference.totals.served);

  // An interval that fits the day stays untouched.
  ScenarioConfig fitting = quick_config(config);
  obs::Registry quiet;
  fitting.registry = &quiet;
  (void)run_scenario(model, topology, fitting);
  EXPECT_EQ(quiet.counter("scenario.interval_clamped"), 0u);
}

TEST(Scenario, RequestAccountingReconciles) {
  const QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const TopologyBuilder topology(model, config.link_policy());
  const ScenarioResult result =
      run_scenario(model, topology, quick_config(config));
  EXPECT_EQ(result.totals.issued, 30u * 10u);
  EXPECT_EQ(result.totals.served + result.totals.no_path +
                result.totals.isolated,
            result.totals.issued);
  EXPECT_NEAR(static_cast<double>(result.totals.served) /
                  static_cast<double>(result.totals.issued),
              result.served_fraction, 1e-12);
  EXPECT_EQ(result.totals.fidelity.count(), result.totals.served);
}

TEST(Scenario, DeterministicAcrossRuns) {
  const QntnConfig config;
  const NetworkModel model = core::build_space_ground_model(config, 6);
  const TopologyBuilder topology(model, config.link_policy());
  const ScenarioConfig sc = quick_config(config);
  const ScenarioResult a = run_scenario(model, topology, sc);
  const ScenarioResult b = run_scenario(model, topology, sc);
  EXPECT_DOUBLE_EQ(a.coverage.percent, b.coverage.percent);
  EXPECT_DOUBLE_EQ(a.served_fraction, b.served_fraction);
  EXPECT_DOUBLE_EQ(a.totals.fidelity.mean(), b.totals.fidelity.mean());
}

/// Every served request record carries the fidelity and transmissivity the
/// aggregate counted: on one small traced space-ground day per serving
/// mode, the step engine's records (replayed step by step as run_scenario
/// serves them) are all in range, one per served request, and their mean
/// fidelity is the scenario total's; the trace has one served line each.
TEST(Scenario, ServedRecordsCarryTheAggregatesFidelityInEveryMode) {
  for (const ServingMode mode : {ServingMode::SingleShot,
                                 ServingMode::Entanglement,
                                 ServingMode::Traffic}) {
    SCOPED_TRACE(static_cast<int>(mode));
    QntnConfig config;
    config.day_duration = 21'600.0;  // 6 hours
    config.ephemeris_step = 60.0;
    config.request_count = 25;
    config.request_steps = 36;
    config.serving_mode = mode;
    config.traffic_arrival_rate = 0.02;
    const NetworkModel model = core::build_space_ground_model(config, 36);
    const core::Topology topology = core::make_topology(config, model);
    ScenarioConfig sc = config.scenario_config();
    std::ostringstream trace_bytes;
    obs::TraceSink sink(trace_bytes, obs::TraceLevel::Requests);
    sc.trace = &sink;
    const ScenarioResult result = run_scenario(model, topology.provider(), sc);
    ASSERT_GT(result.totals.served, 0u);

    Rng rng(sc.request_seed);
    const std::vector<Request> requests =
        generate_requests(model, sc.request_count, rng);
    const auto engine =
        make_serving_engine(model, topology.provider(), requests, sc,
                            sc.request_step_interval, /*record_requests=*/true);
    std::size_t served = 0;
    double fidelity_sum = 0.0;
    for (std::size_t step = 0; step < sc.request_steps; ++step) {
      const ServeStepResult step_result = engine->serve_step(
          step, static_cast<double>(step) * sc.request_step_interval);
      for (const RequestRecord& rec : step_result.requests) {
        if (rec.disposition != ServeDisposition::Served) continue;
        ++served;
        fidelity_sum += rec.fidelity;
        EXPECT_GT(rec.fidelity, 0.0) << "step " << step;
        EXPECT_LE(rec.fidelity, 1.0) << "step " << step;
        EXPECT_GT(rec.transmissivity, 0.0) << "step " << step;
        EXPECT_LE(rec.transmissivity, 1.0) << "step " << step;
      }
    }
    EXPECT_EQ(served, result.totals.served);
    // The trace shows the same records: one line per served request, none
    // with a zero fidelity.
    std::size_t traced_served = 0;
    std::istringstream lines(trace_bytes.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"status\": \"served\"") == std::string::npos) continue;
      ++traced_served;
      EXPECT_EQ(line.find("\"fidelity\": 0,"), std::string::npos) << line;
    }
    EXPECT_EQ(traced_served, result.totals.served);
    const double mean = result.totals.fidelity.mean();
    EXPECT_NEAR(fidelity_sum / static_cast<double>(served), mean,
                1e-12 * mean);
  }
}

TEST(ServeStats, MergeAddsCountsAndAppendsSamplesInOrder) {
  ServeStepResult a;
  a.outcome.issued = 3;
  a.outcome.served = 1;
  a.outcome.no_path = 1;
  a.outcome.congested = 1;
  a.outcome.fidelity.add(0.9);
  a.em.swaps = 2;
  a.em.memory_occupancy.add(0.25);
  a.em.latency_samples = {0.5};
  a.traffic.peak_queue_depth = 4;
  a.traffic.peak_utilisation.add(0.5);
  a.traffic.latency_samples = {1.0, 2.0};
  a.traffic.waiting_samples = {0.0, 1.0};
  ServeStepResult b;
  b.outcome.issued = 2;
  b.outcome.served = 1;
  b.outcome.dropped_deadline = 1;
  b.outcome.fidelity.add(0.7);
  b.em.swaps = 1;
  b.em.memory_occupancy.add(0.75);
  b.em.latency_samples = {0.25};
  b.traffic.peak_queue_depth = 2;
  b.traffic.peak_utilisation.add(1.0);
  b.traffic.latency_samples = {3.0};
  b.traffic.waiting_samples = {2.0};

  ServeOutcome totals;
  EmStats em;
  TrafficStats traffic;
  for (const ServeStepResult* step : {&a, &b}) {
    totals.merge(step->outcome);
    em.merge(step->em);
    traffic.merge(step->traffic);
  }
  EXPECT_EQ(totals.issued, 5u);
  EXPECT_EQ(totals.served, 2u);
  EXPECT_TRUE(totals.reconciles());
  EXPECT_EQ(totals.fidelity.count(), 2u);
  EXPECT_DOUBLE_EQ(totals.fidelity.mean(), 0.8);
  EXPECT_EQ(em.swaps, 3u);
  EXPECT_EQ(em.memory_occupancy.count(), 2u);  // one sample per snapshot
  EXPECT_DOUBLE_EQ(em.memory_occupancy.mean(), 0.5);
  EXPECT_EQ(em.latency_samples, (std::vector<double>{0.5, 0.25}));
  EXPECT_EQ(traffic.peak_queue_depth, 4u);  // max, not sum
  EXPECT_EQ(traffic.peak_utilisation.count(), 2u);
  EXPECT_EQ(traffic.latency_samples, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(traffic.waiting_samples, (std::vector<double>{0.0, 1.0, 2.0}));

  // Folding an empty step (another mode's stats) changes nothing.
  const ServeStepResult empty;
  em.merge(empty.em);
  traffic.merge(empty.traffic);
  EXPECT_EQ(em.memory_occupancy.count(), 2u);
  EXPECT_EQ(traffic.peak_utilisation.count(), 2u);
  EXPECT_EQ(traffic.latency_samples.size(), 3u);
}

}  // namespace
}  // namespace qntn::sim
