#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

void expect_same_stats(const RunningStats& got, const RunningStats& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.variance(), want.variance());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
}

/// Every engine writes its step's records and its outcome itself; nothing
/// derives one from the other. At every step of a small hybrid day (its
/// HAPs give em's congested relays disjoint alternates to spill onto), in
/// every mode on both providers, the records must count into exactly
/// the outcome's buckets, and re-adding the served records' fidelity,
/// transmissivity, hops (fixed-batch engines) and latency (em, traffic)
/// must give the step's stats back.
TEST(ServingEngines, StepRecordsAgreeWithTheOutcome) {
  for (const core::TopologyMode topology_mode :
       {core::TopologyMode::Rebuild, core::TopologyMode::ContactPlan}) {
    for (const ServingMode mode : {ServingMode::SingleShot,
                                   ServingMode::Entanglement,
                                   ServingMode::Traffic}) {
      SCOPED_TRACE("provider " + std::to_string(static_cast<int>(
                                     topology_mode)) +
                   " mode " + std::to_string(static_cast<int>(mode)));
      QntnConfig config;
      config.topology_mode = topology_mode;
      config.day_duration = 21'600.0;  // 6 hours
      config.ephemeris_step = 60.0;
      config.request_count = 100;
      config.request_steps = 36;
      config.serving_mode = mode;
      config.em_node_capacity = 1;  // congests relays, spills onto k paths
      // About 360 arrivals per 600-s window onto single-pair nodes busy
      // 250 ms per request: queues overflow and deadlines expire.
      config.traffic_arrival_rate = 0.2;
      config.traffic_node_capacity = 1;
      config.traffic_service_overhead = 0.25;
      const NetworkModel model = core::build_hybrid_model(config, 36);
      const core::Topology topology = core::make_topology(config, model);
      const ScenarioConfig sc = config.scenario_config();
      Rng rng(sc.request_seed);
      const std::vector<Request> requests =
          generate_requests(model, sc.request_count, rng);
      const auto engine = make_serving_engine(
          model, topology.provider(), requests, sc, sc.request_step_interval,
          /*record_requests=*/true);

      ServeOutcome day;
      std::size_t spilled = 0;
      for (std::size_t step = 0; step < sc.request_steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const ServeStepResult sr = engine->serve_step(
            step, static_cast<double>(step) * sc.request_step_interval);
        const ServeOutcome& outcome = sr.outcome;
        day.merge(outcome);
        spilled += sr.em.spilled;

        ServeOutcome counted;
        counted.issued = sr.requests.size();
        std::vector<double> latencies;
        EmStats em;
        for (const RequestRecord& rec : sr.requests) {
          switch (rec.disposition) {
            case ServeDisposition::Served:
              ++counted.served;
              break;
            case ServeDisposition::NoPath:
              ++counted.no_path;
              break;
            case ServeDisposition::Isolated:
              ++counted.isolated;
              break;
            case ServeDisposition::Congested:
              ++counted.congested;
              break;
            case ServeDisposition::RejectedCapacity:
              ++counted.rejected_capacity;
              break;
            case ServeDisposition::DroppedDeadline:
              ++counted.dropped_deadline;
              break;
          }
          if (rec.disposition != ServeDisposition::Served) continue;
          counted.fidelity.add(rec.fidelity);
          counted.transmissivity.add(rec.transmissivity);
          counted.hops.add(static_cast<double>(rec.hops));
          latencies.push_back(rec.latency);
          em.swaps += rec.em.swaps;
          em.purification_rounds += rec.em.purification_rounds;
          em.pairs_consumed += rec.em.pairs_consumed;
          if (rec.em.route_index > 0) ++em.spilled;
        }
        EXPECT_EQ(counted.issued, outcome.issued);
        EXPECT_EQ(counted.served, outcome.served);
        EXPECT_EQ(counted.no_path, outcome.no_path);
        EXPECT_EQ(counted.isolated, outcome.isolated);
        EXPECT_EQ(counted.congested, outcome.congested);
        EXPECT_EQ(counted.rejected_capacity, outcome.rejected_capacity);
        EXPECT_EQ(counted.dropped_deadline, outcome.dropped_deadline);
        EXPECT_TRUE(outcome.reconciles());

        if (mode == ServingMode::Traffic) {
          // Records come in arrival order, samples in service-start order.
          EXPECT_EQ(counted.fidelity.count(), outcome.fidelity.count());
          EXPECT_EQ(counted.hops.count(), outcome.hops.count());
          std::vector<double> samples = sr.traffic.latency_samples;
          std::sort(samples.begin(), samples.end());
          std::sort(latencies.begin(), latencies.end());
          EXPECT_EQ(latencies, samples);
          continue;
        }
        expect_same_stats(counted.fidelity, outcome.fidelity);
        expect_same_stats(counted.transmissivity, outcome.transmissivity);
        expect_same_stats(counted.hops, outcome.hops);
        if (mode == ServingMode::Entanglement) {
          EXPECT_EQ(latencies, sr.em.latency_samples);
          EXPECT_EQ(em.swaps, sr.em.swaps);
          EXPECT_EQ(em.purification_rounds, sr.em.purification_rounds);
          EXPECT_EQ(em.pairs_consumed, sr.em.pairs_consumed);
          EXPECT_EQ(em.spilled, sr.em.spilled);
        }
      }
      // The day exercised what the checks compare.
      EXPECT_GT(day.served, 0u);
      if (mode == ServingMode::Entanglement) {
        EXPECT_GT(day.congested, 0u);
        EXPECT_GT(spilled, 0u);
      }
      if (mode == ServingMode::Traffic) {
        EXPECT_GT(day.rejected_capacity + day.dropped_deadline, 0u);
      }
    }
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
