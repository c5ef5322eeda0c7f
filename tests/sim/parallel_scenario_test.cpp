#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "net/routing.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"

/// Golden determinism contract of the parallel snapshot engine (DESIGN.md
/// §9/§13): for every topology mode, serving mode and thread count,
/// run_scenario must produce a ScenarioResult — and a trace stream —
/// bitwise identical to the serial run, including when the per-worker
/// epoch caches reuse route trees (eta-independent metrics) and when the
/// day is served in several bounded rounds. EXPECT_EQ on doubles below is
/// deliberate: the ordered reduction promises equality to the last bit,
/// not approximate agreement.

namespace qntn::sim {
namespace {

using core::QntnConfig;
using core::TopologyMode;

ScenarioConfig quick_config(const QntnConfig& config) {
  ScenarioConfig sc = config.scenario_config();
  sc.coverage.duration = 14'400.0;  // 4 hours
  sc.coverage.step = 120.0;
  sc.request_count = 30;
  sc.request_steps = 10;
  sc.request_step_interval = 1440.0;
  return sc;
}

struct RunOutput {
  ScenarioResult result;
  std::string trace;
};

/// Test-only decorator that serves the wrapped provider's graphs but hides
/// its epoch partition: every snapshot comes back tagged kNoEpoch, so no
/// serving engine may reuse trees or candidate routes across snapshots and
/// every snapshot rebuilds its dynamic edges. With no partition to report
/// (epoch_count() == 0), coverage and fixed-batch serving also take the
/// serial path. Running a scenario with and without it is the differential
/// oracle for the per-worker epoch caches.
class EpochBlindTopology final : public TopologyProvider {
 public:
  explicit EpochBlindTopology(const TopologyProvider& inner) : inner_(inner) {}

  [[nodiscard]] net::Graph graph_at(double t) const override {
    return inner_.graph_at(t);
  }

  void snapshot_at(double t, TopologySnapshot& snap) const override {
    inner_.snapshot_at(t, snap);
    snap.epoch = kNoEpoch;
  }

 private:
  const TopologyProvider& inner_;
};

/// Serve one scenario on a prebuilt model and provider, tracing every
/// request.
RunOutput run_on(const NetworkModel& model, const TopologyProvider& topology,
                 ScenarioConfig sc, ThreadPool* pool,
                 obs::Registry* registry = nullptr) {
  RunOutput out;
  std::ostringstream trace_stream;
  obs::TraceSink trace(trace_stream, obs::TraceLevel::Requests);
  sc.pool = pool;
  sc.trace = &trace;
  sc.registry = registry;
  out.result = run_scenario(model, topology, sc);
  out.trace = trace_stream.str();
  return out;
}

RunOutput run_with(TopologyMode mode, ThreadPool* pool,
                   obs::Registry* registry = nullptr,
                   void (*mutate)(ScenarioConfig&) = nullptr) {
  QntnConfig config;
  config.topology_mode = mode;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  ScenarioConfig sc = quick_config(config);
  if (mutate != nullptr) mutate(sc);
  return run_on(model, topology.provider(), sc, pool, registry);
}

/// The full 108-satellite constellation on the contact plan. Twelve
/// satellites serve no request in quick_config's four hours; this day
/// serves most of them and hands them over between relays, so the
/// route-reuse and round-boundary tests below have outcomes to compare.
struct BusyDay {
  QntnConfig config;
  NetworkModel model;
  core::Topology topology;

  BusyDay() {
    config.topology_mode = TopologyMode::ContactPlan;
    model = core::build_space_ground_model(config, 108);
    topology = core::make_topology(config, model);
  }
};

const BusyDay& busy_day() {
  static const BusyDay day;
  return day;
}

/// Value of `"key": ` in one JSONL trace line, without quotes.
std::string trace_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t begin = at + tag.size();
  if (line[begin] == '"') ++begin;
  const std::size_t end = line.find_first_of(",}\"", begin);
  return line.substr(begin, end - begin);
}

/// Trees a serial single-shot or traffic run under HopCount builds, read
/// off its request events: one per source whose request got past the
/// isolation check and had a path, per snapshot — or, where the provider
/// reports one epoch for consecutive snapshots, per run of such snapshots,
/// since the engine keeps its trees across them.
std::size_t expected_source_trees(const RunOutput& run,
                                  const TopologyProvider& topology) {
  std::size_t trees = 0;
  std::set<net::NodeId> sources;
  std::string step;
  std::size_t epoch = TopologyProvider::kNoEpoch;
  std::istringstream lines(run.trace);
  for (std::string line; std::getline(lines, line);) {
    if (trace_field(line, "type") != "request") continue;
    const std::string status = trace_field(line, "status");
    if (trace_field(line, "step") != step) {
      step = trace_field(line, "step");
      const std::size_t next =
          topology.epoch_of(std::stod(trace_field(line, "t")));
      if (next == TopologyProvider::kNoEpoch || next != epoch) {
        trees += sources.size();
        sources.clear();
      }
      epoch = next;
    }
    if (status != "no_path" && status != "isolated") {
      sources.insert(std::stoul(trace_field(line, "src")));
    }
  }
  return trees + sources.size();
}

/// quick_config on the busy day with snapshots 30 s apart, so consecutive
/// snapshots often share a topology epoch and the epoch caches engage.
ScenarioConfig dense_config(void (*mutate)(ScenarioConfig&)) {
  ScenarioConfig sc = quick_config(busy_day().config);
  sc.request_step_interval = 30.0;
  mutate(sc);
  return sc;
}

void single_shot_hop_count(ScenarioConfig& sc) {
  sc.metric = net::CostMetric::HopCount;
}

void traffic_hop_count(ScenarioConfig& sc) {
  sc.serving_mode = ServingMode::Traffic;
  sc.traffic.metric = net::CostMetric::HopCount;
}

void em_default(ScenarioConfig& sc) {
  sc.serving_mode = ServingMode::Entanglement;
}

const char* mode_name(const ScenarioConfig& sc) {
  switch (sc.serving_mode) {
    case ServingMode::Traffic:
      return "traffic";
    case ServingMode::Entanglement:
      return "em";
    case ServingMode::SingleShot:
      break;
  }
  return "single-shot";
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
  EXPECT_EQ(a.result.coverage.percent, b.result.coverage.percent);
  EXPECT_EQ(a.result.coverage.covered_s,
            b.result.coverage.covered_s);
  EXPECT_EQ(a.result.coverage.step_connected, b.result.coverage.step_connected);
  EXPECT_EQ(a.result.served_fraction, b.result.served_fraction);
  expect_same_stats(a.result.served_per_step, b.result.served_per_step);
  expect_same_stats(a.result.totals.fidelity, b.result.totals.fidelity);
  expect_same_stats(a.result.totals.transmissivity, b.result.totals.transmissivity);
  expect_same_stats(a.result.totals.hops, b.result.totals.hops);
  EXPECT_EQ(a.result.totals.issued, b.result.totals.issued);
  EXPECT_EQ(a.result.totals.served, b.result.totals.served);
  EXPECT_EQ(a.result.totals.no_path, b.result.totals.no_path);
  EXPECT_EQ(a.result.totals.isolated, b.result.totals.isolated);
  EXPECT_EQ(a.result.handovers, b.result.handovers);
  EXPECT_EQ(a.result.totals.congested, b.result.totals.congested);
  EXPECT_EQ(a.result.totals.rejected_capacity,
            b.result.totals.rejected_capacity);
  EXPECT_EQ(a.result.totals.dropped_deadline,
            b.result.totals.dropped_deadline);
  // The mode-specific stats are empty outside their mode, so comparing
  // both sets unconditionally is exact for every mode.
  EXPECT_EQ(a.result.em.swaps, b.result.em.swaps);
  EXPECT_EQ(a.result.em.purification_rounds, b.result.em.purification_rounds);
  EXPECT_EQ(a.result.em.pairs_consumed, b.result.em.pairs_consumed);
  EXPECT_EQ(a.result.em.slo_met, b.result.em.slo_met);
  EXPECT_EQ(a.result.em.spilled, b.result.em.spilled);
  expect_same_stats(a.result.em.memory_occupancy, b.result.em.memory_occupancy);
  expect_same_stats(a.result.em.swap_depth, b.result.em.swap_depth);
  EXPECT_EQ(a.result.em.latency_samples, b.result.em.latency_samples);
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

TEST(ParallelScenario, BitIdenticalAcrossThreadCountsContactPlan) {
  const RunOutput serial = run_with(TopologyMode::ContactPlan, nullptr);
  EXPECT_FALSE(serial.trace.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel = run_with(TopologyMode::ContactPlan, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelScenario, BitIdenticalAcrossThreadCountsRebuild) {
  // The per-step rebuild provider has no epoch partition, so a pool must
  // leave the serial path (and its results) untouched.
  const RunOutput serial = run_with(TopologyMode::Rebuild, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel = run_with(TopologyMode::Rebuild, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelScenario, ModesAgreeUnderTheEngine) {
  // Contact-plan epochs must reproduce the rebuild's scenario bit for bit
  // even when the engine rides the epoch fast paths.
  ThreadPool pool(4);
  const RunOutput rebuild = run_with(TopologyMode::Rebuild, &pool);
  const RunOutput plan = run_with(TopologyMode::ContactPlan, &pool);
  expect_identical(rebuild, plan);
}

TEST(ParallelScenario, EpochCountersReconcileWithQueries) {
  // Engine mode funnels every topology query through snapshot_at, so
  // in-place refreshes plus skeleton builds must account for every query,
  // and the scenario must have taken exactly request_steps snapshots.
  ThreadPool pool(4);
  obs::Registry registry;
  (void)run_with(TopologyMode::ContactPlan, &pool, &registry);
  const std::uint64_t queries = registry.counter("plan.graph_queries");
  const std::uint64_t hits = registry.counter("plan.epoch_hits");
  const std::uint64_t builds = registry.counter("plan.epoch_builds");
  EXPECT_GT(queries, 0u);
  EXPECT_GT(builds, 0u);
  EXPECT_EQ(queries, hits + builds);
  EXPECT_EQ(registry.counter("scenario.snapshots"), 10u);
}

TEST(ParallelScenario, EmModeBitIdenticalAcrossThreadCounts) {
  // Entanglement-management serving with its default HopCount metric: each
  // worker's manager caches candidate routes per epoch, and workers see
  // different step runs at every thread count — results and trace must
  // still match the serial run to the bit.
  const RunOutput serial =
      run_with(TopologyMode::ContactPlan, nullptr, nullptr, em_default);
  // The em fold ran: one occupancy observation per snapshot.
  EXPECT_EQ(serial.result.em.memory_occupancy.count(), 10u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const RunOutput parallel =
        run_with(TopologyMode::ContactPlan, &pool, nullptr, em_default);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelScenario, EmCandidateSetsShareSearchTrees) {
  // Every em request that gets past the isolation check and misses the
  // epoch route table builds a k-disjoint candidate set. Those sets share
  // one search tree per (epoch, source, banned relays), so the searches
  // must number fewer than the sets once a batch repeats sources (the
  // em_day benchmark's 300 requests per snapshot).
  const BusyDay& day = busy_day();
  ScenarioConfig sc = dense_config(em_default);
  sc.request_count = 300;
  obs::Registry registry;
  const RunOutput run =
      run_on(day.model, day.topology.provider(), sc, nullptr, &registry);
  const std::uint64_t sets_built = registry.counter("em.route_builds");
  // Every lookup is a route-table hit or a candidate set built.
  EXPECT_EQ(sets_built + registry.counter("em.route_cache_hits"),
            run.result.totals.issued - run.result.totals.isolated);
  EXPECT_GT(registry.counter("net.masked_searches"), 0u);
  EXPECT_LT(registry.counter("net.masked_searches"), sets_built);
}

TEST(ParallelScenario, TrafficModeBitIdenticalAcrossThreadCounts) {
  // Open-arrival traffic serving routed on HopCount: each worker's engine
  // keeps its route trees across same-epoch windows, and event windows are
  // split across workers differently at every thread count.
  const BusyDay& day = busy_day();
  const ScenarioConfig sc = dense_config(traffic_hop_count);
  obs::Registry registry;
  const RunOutput serial =
      run_on(day.model, day.topology.provider(), sc, nullptr, &registry);
  EXPECT_EQ(serial.result.traffic.peak_utilisation.count(),
            sc.request_steps);  // the traffic fold ran once per window
  EXPECT_GT(serial.result.totals.served, 0u);
  // The windows of one epoch share their trees, all hop-count trees.
  EXPECT_EQ(registry.counter("net.bf_trees"), 0u);
  EXPECT_EQ(registry.counter("net.hop_trees"),
            expected_source_trees(serial, day.topology.provider()));
  EXPECT_LT(expected_source_trees(serial, day.topology.provider()),
            expected_source_trees(serial, EpochBlindTopology(
                                              day.topology.provider())));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    expect_identical(serial,
                     run_on(day.model, day.topology.provider(), sc, &pool));
  }
}

TEST(ParallelScenario, HopCountSingleShotBitIdenticalAcrossThreadCounts) {
  // Single-shot serving under HopCount reuses each worker's route trees
  // across same-epoch snapshots on the paper's own serving path — still
  // bit-identical at every thread count.
  const BusyDay& day = busy_day();
  const ScenarioConfig sc = dense_config(single_shot_hop_count);
  obs::Registry registry;
  const RunOutput serial =
      run_on(day.model, day.topology.provider(), sc, nullptr, &registry);
  EXPECT_GT(serial.result.totals.served, 0u);
  // The reuse must actually have run: fewer trees than one per source
  // with a path per snapshot.
  EXPECT_EQ(registry.counter("net.bf_trees"), 0u);
  EXPECT_EQ(registry.counter("net.hop_trees"),
            expected_source_trees(serial, day.topology.provider()));
  EXPECT_LT(expected_source_trees(serial, day.topology.provider()),
            expected_source_trees(serial, EpochBlindTopology(
                                              day.topology.provider())));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    expect_identical(serial,
                     run_on(day.model, day.topology.provider(), sc, &pool));
  }
}

TEST(ParallelScenario, EpochCachesMatchEpochBlindServing) {
  // Differential oracle for the per-worker epoch caches: the same day
  // served through EpochBlindTopology, which turns every epoch reuse off,
  // must give byte-identical results and traces in all three serving
  // modes at every thread count.
  const BusyDay& day = busy_day();
  const TopologyProvider& plan = day.topology.provider();
  const EpochBlindTopology blind(plan);
  for (void (*mode)(ScenarioConfig&) :
       {single_shot_hop_count, traffic_hop_count, em_default}) {
    ScenarioConfig sc = dense_config(mode);
    sc.request_steps = 130;
    SCOPED_TRACE(mode_name(sc));
    obs::Registry cached_registry;
    obs::Registry blind_registry;
    const RunOutput cached = run_on(day.model, plan, sc, nullptr,
                                    &cached_registry);
    expect_identical(cached,
                     run_on(day.model, blind, sc, nullptr, &blind_registry));
    // The caches must have engaged, or the comparison proves nothing.
    if (sc.serving_mode == ServingMode::Entanglement) {
      EXPECT_GT(cached_registry.counter("em.route_cache_hits"), 0u);
      EXPECT_EQ(blind_registry.counter("em.route_cache_hits"), 0u);
    } else {
      EXPECT_EQ(cached_registry.counter("net.hop_trees"),
                expected_source_trees(cached, plan));
      EXPECT_EQ(blind_registry.counter("net.hop_trees"),
                expected_source_trees(cached, blind));
      EXPECT_LT(cached_registry.counter("net.hop_trees"),
                blind_registry.counter("net.hop_trees"));
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      expect_identical(run_on(day.model, plan, sc, &pool),
                       run_on(day.model, blind, sc, &pool));
    }
  }
}

TEST(ParallelScenario, RoundBoundariesMatchSerial) {
  // The parallel engine serves the day in rounds of pool size x 64 steps.
  // 130 steps is no multiple of any round size: one worker merges three
  // rounds (64 + 64 + 2); three workers serve one partial round as
  // 64 + 64 + 2, eight workers the same with five idle slots. Results,
  // handovers (last-relay continuity across round boundaries) and trace
  // bytes must all equal the serial run.
  const BusyDay& day = busy_day();
  const TopologyProvider& plan = day.topology.provider();
  for (void (*mode)(ScenarioConfig&) :
       {+[](ScenarioConfig&) {}, em_default,
        +[](ScenarioConfig& sc) { sc.serving_mode = ServingMode::Traffic; }}) {
    ScenarioConfig sc = quick_config(day.config);
    sc.request_steps = 130;
    sc.request_step_interval = 100.0;
    mode(sc);
    SCOPED_TRACE(mode_name(sc));
    const RunOutput serial = run_on(day.model, plan, sc, nullptr);
    EXPECT_GT(serial.result.totals.served, 0u);
    if (sc.serving_mode != ServingMode::Traffic) {
      EXPECT_GT(serial.result.handovers, 0u);
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                      std::size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      expect_identical(serial, run_on(day.model, plan, sc, &pool));
    }
  }
}

TEST(ParallelScenario, SerialContactPlanQueriesCoverEveryStep) {
  // Serial contact-plan runs ask one connectivity question per distinct
  // topology epoch of the coverage steps (as the pool path does) and build
  // one graph per request snapshot, and the hit/build split accounts for
  // every graph query on the fresh-materialisation path too (graph_at
  // counts as a build).
  QntnConfig config;
  config.topology_mode = TopologyMode::ContactPlan;
  const NetworkModel model = core::build_space_ground_model(config, 12);
  const core::Topology topology = core::make_topology(config, model);
  const ScenarioConfig sc = quick_config(config);
  std::uint64_t epoch_runs = 0;
  std::size_t last_epoch = TopologyProvider::kNoEpoch;
  for (std::size_t i = 0; i < 120; ++i) {  // 4 h / 120 s coverage steps
    const double t = static_cast<double>(i) * sc.coverage.step;
    const std::size_t epoch = topology.provider().epoch_of(t);
    if (epoch_runs == 0 || epoch != last_epoch) ++epoch_runs;
    last_epoch = epoch;
  }
  EXPECT_LT(epoch_runs, 120u);  // some steps share an epoch
  obs::Registry registry;
  (void)run_on(model, topology.provider(), sc, nullptr, &registry);
  const std::uint64_t queries = registry.counter("plan.graph_queries");
  const std::uint64_t hits = registry.counter("plan.epoch_hits");
  const std::uint64_t builds = registry.counter("plan.epoch_builds");
  EXPECT_EQ(registry.counter("sim.connectivity_queries"), epoch_runs);
  EXPECT_EQ(queries, 10u);  // the request snapshots
  EXPECT_EQ(queries, hits + builds);
}

}  // namespace
}  // namespace qntn::sim
