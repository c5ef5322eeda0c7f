// Golden test for the paper-reproduction numbers: one 6..108 rebuild sweep
// (Figs. 6-8 read off that single pass), Table III, the Fig. 5 points, the
// coverage period T_c at 108 satellites, and the contact-plan provider at
// n in {6, 54, 108}. Every value is written as %.10g, one per line, to the
// committed tests/golden/repro.golden and compared byte for byte, so a
// refactor that claims byte-identity shows it as an unchanged golden.
//
// A change that moves a number on purpose regenerates the file with
//
//   QNTN_GOLDEN_UPDATE=1 ./build/tests/test_repro
//
// and shows the golden diff in CHANGES.md (and updates EXPERIMENTS.md).
// Results are identical at any thread count, so the sweep uses the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiments.hpp"

namespace qntn {
namespace {

class GoldenWriter {
 public:
  void section(const std::string& title) { out_ << "# " << title << '\n'; }

  void value(const std::string& key, double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.10g", v);
    out_ << key << " = " << buffer << '\n';
  }

  void count(const std::string& key, std::size_t v) {
    out_ << key << " = " << v << '\n';
  }

  /// The observables of one architecture evaluation under `prefix`.
  void metrics(const std::string& prefix, const core::ArchitectureMetrics& m) {
    value(prefix + ".coverage_percent", m.coverage_percent);
    value(prefix + ".served_percent", m.served_percent);
    value(prefix + ".mean_fidelity", m.mean_fidelity);
    value(prefix + ".mean_transmissivity", m.mean_transmissivity);
    value(prefix + ".mean_hops", m.mean_hops);
    count(prefix + ".requests_issued", m.requests_issued);
    count(prefix + ".requests_served", m.requests_served);
    count(prefix + ".requests_no_path", m.requests_no_path);
    count(prefix + ".requests_isolated", m.requests_isolated);
    count(prefix + ".handovers", m.handovers);
  }

  /// metrics() plus what the em and traffic serving modes add: the other
  /// request buckets, the latency/queueing tails and both mode summaries.
  void serving(const std::string& prefix, const core::ArchitectureMetrics& m) {
    metrics(prefix, m);
    count(prefix + ".requests_congested", m.requests_congested);
    count(prefix + ".requests_rejected_capacity", m.requests_rejected_capacity);
    count(prefix + ".requests_dropped_deadline", m.requests_dropped_deadline);
    value(prefix + ".latency_p50", m.latency_p50);
    value(prefix + ".latency_p95", m.latency_p95);
    value(prefix + ".latency_p99", m.latency_p99);
    value(prefix + ".waiting_p50", m.waiting_p50);
    value(prefix + ".waiting_p95", m.waiting_p95);
    value(prefix + ".waiting_p99", m.waiting_p99);
    count(prefix + ".em.enabled", m.em.enabled ? 1 : 0);
    count(prefix + ".em.swaps", m.em.swaps);
    count(prefix + ".em.purification_rounds", m.em.purification_rounds);
    count(prefix + ".em.pairs_consumed", m.em.pairs_consumed);
    count(prefix + ".em.slo_met", m.em.slo_met);
    count(prefix + ".em.multipath_spills", m.em.multipath_spills);
    value(prefix + ".em.mean_memory_occupancy", m.em.mean_memory_occupancy);
    value(prefix + ".em.mean_swap_depth", m.em.mean_swap_depth);
    count(prefix + ".traffic.enabled", m.traffic.enabled ? 1 : 0);
    value(prefix + ".traffic.mean_peak_utilisation",
          m.traffic.mean_peak_utilisation);
    count(prefix + ".traffic.peak_queue_depth", m.traffic.peak_queue_depth);
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string render_repro() {
  const core::QntnConfig config;
  ThreadPool pool;
  GoldenWriter golden;

  const std::vector<core::ArchitectureMetrics> sweep = core::space_ground_sweep(
      config, core::paper_constellation_sizes(), pool);
  golden.section("Figs. 6-8: space-ground sweep, rebuild topology");
  for (const core::ArchitectureMetrics& point : sweep) {
    golden.metrics("sweep.n" + std::to_string(point.satellites), point);
  }
  golden.section("Fig. 6");
  for (const core::ArchitectureMetrics& point : sweep) {
    golden.value("fig6.n" + std::to_string(point.satellites) + ".coverage_percent",
                 point.coverage_percent);
  }
  golden.section("Fig. 7");
  for (const core::ArchitectureMetrics& point : sweep) {
    golden.value("fig7.n" + std::to_string(point.satellites) + ".served_percent",
                 point.served_percent);
  }
  golden.section("Fig. 8");
  for (const core::ArchitectureMetrics& point : sweep) {
    golden.value("fig8.n" + std::to_string(point.satellites) + ".mean_fidelity",
                 point.mean_fidelity);
  }

  golden.section("Eq. 6: coverage period T_c at 108 satellites");
  const core::ArchitectureMetrics& full = sweep.back();
  const double covered_s = full.coverage_percent / 100.0 * config.day_duration;
  golden.value("tc.n108.covered_s", covered_s);
  golden.value("tc.n108.covered_min", covered_s / 60.0);

  golden.section("Table III");
  core::RunContext ctx{config};
  ctx.pool = &pool;
  for (const core::ArchitectureMetrics& row : core::table3_comparison(ctx, 108)) {
    golden.metrics("table3." + row.architecture, row);
  }

  golden.section("Fig. 5: fidelity vs transmissivity, step 0.01");
  const auto uhlmann =
      core::fig5_fidelity_sweep(quantum::FidelityConvention::Uhlmann, 0.01);
  const auto jozsa =
      core::fig5_fidelity_sweep(quantum::FidelityConvention::Jozsa, 0.01);
  for (std::size_t i = 0; i < uhlmann.size(); ++i) {
    const std::string key = "fig5." + std::to_string(i);
    golden.value(key + ".eta", uhlmann[i].transmissivity);
    golden.value(key + ".uhlmann", uhlmann[i].fidelity_simulated);
    golden.value(key + ".jozsa", jozsa[i].fidelity_simulated);
  }
  golden.value("fig5.eta_for_f90_uhlmann",
               core::transmissivity_threshold_for(uhlmann, 0.90));

  golden.section("Contact-plan topology (equals the rebuild sweep)");
  core::QntnConfig plan_config = config;
  plan_config.topology_mode = core::TopologyMode::ContactPlan;
  core::RunContext plan_ctx{plan_config};
  plan_ctx.pool = &pool;
  for (const std::size_t n : {std::size_t{6}, std::size_t{54}, std::size_t{108}}) {
    golden.metrics("plan.n" + std::to_string(n),
                   core::evaluate_space_ground(plan_ctx, n));
  }

  golden.section(
      "E12: em serving, space-ground @108, 100 requests x 100 snapshots, "
      "SLO 0.9, T1 = T2 (bench_ext_em's size)");
  for (const auto& [slots, t2] : {std::pair{std::size_t{32}, 0.5},
                                  std::pair{std::size_t{64}, 0.1}}) {
    core::RunContext em_ctx{config};
    em_ctx.pool = &pool;
    em_ctx.config.serving_mode = core::ServingMode::Entanglement;
    em_ctx.config.em_memory_slots = slots;
    em_ctx.config.em_memory_t1 = t2;
    em_ctx.config.em_memory_t2 = t2;
    em_ctx.config.em_fidelity_slo = 0.9;
    char key[64];
    std::snprintf(key, sizeof key, "e12.slots%zu.t2_%g", slots, t2);
    golden.serving(key, core::evaluate_space_ground(em_ctx, 108));
  }

  golden.section(
      "E13: traffic serving, space-ground @108, reduced to 288 windows of "
      "300 s (EXPERIMENTS uses 2880 of 30 s)");
  for (const auto& [rate, capacity, overhead] :
       {std::tuple{0.2, std::size_t{8}, 0.01},
        std::tuple{0.2, std::size_t{1}, 0.25}}) {
    core::RunContext traffic_ctx{config};
    traffic_ctx.pool = &pool;
    traffic_ctx.config.serving_mode = core::ServingMode::Traffic;
    traffic_ctx.config.request_steps = 288;
    traffic_ctx.config.traffic_arrival_rate = rate;
    traffic_ctx.config.traffic_node_capacity = capacity;
    traffic_ctx.config.traffic_service_overhead = overhead;
    char key[64];
    std::snprintf(key, sizeof key, "e13.rate%g.cap%zu.overhead%g", rate,
                  capacity, overhead);
    golden.serving(key, core::evaluate_space_ground(traffic_ctx, 108));
  }

  golden.section(
      "E2: capacity-limited serving, traffic mode, 25 windows of ~100 "
      "requests, claims outlast the window (bench_ext_capacity's config)");
  core::QntnConfig e2 = config;
  e2.serving_mode = core::ServingMode::Traffic;
  e2.request_steps = 25;
  const double e2_window = e2.day_duration / 25.0;
  e2.traffic_arrival_rate = 100.0 / (3.0 * e2_window);
  e2.traffic_diurnal_amplitude = 0.0;
  e2.traffic_service_overhead = e2_window;
  for (const std::size_t capacity : {std::size_t{10}, std::size_t{100}}) {
    core::RunContext e2_ctx{e2};
    e2_ctx.pool = &pool;
    e2_ctx.config.traffic_node_capacity = capacity;
    const std::string key = "e2.cap" + std::to_string(capacity);
    golden.serving(key + ".air", core::evaluate_air_ground(e2_ctx));
    golden.serving(key + ".n108", core::evaluate_space_ground(e2_ctx, 108));
  }

  golden.section(
      "E10: air-ground under Poisson load, traffic mode, two 30-s windows, "
      "capacity 4 (bench_ext_traffic's config)");
  core::QntnConfig e10 = config;
  e10.serving_mode = core::ServingMode::Traffic;
  e10.day_duration = 60.0;
  e10.request_steps = 2;
  e10.traffic_diurnal_amplitude = 0.0;
  e10.traffic_node_capacity = 4;
  e10.traffic_service_overhead = 0.01;
  e10.traffic_max_queue_delay = 0.25;
  e10.em_memory_t1 = 1.0;
  e10.em_memory_t2 = 0.3;
  for (const double rate : {5.0, 150.0}) {
    core::RunContext e10_ctx{e10};
    e10_ctx.pool = &pool;
    e10_ctx.config.traffic_arrival_rate = rate;
    char key[32];
    std::snprintf(key, sizeof key, "e10.rate%g", rate);
    golden.serving(key, core::evaluate_air_ground(e10_ctx));
  }
  return golden.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Repro, GoldenNumbersUnchanged) {
  const std::string computed = render_repro();
  const char* update = std::getenv("QNTN_GOLDEN_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(QNTN_REPRO_GOLDEN, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << QNTN_REPRO_GOLDEN;
    out << computed;
    std::printf("regenerated %s\n", QNTN_REPRO_GOLDEN);
    return;
  }
  std::ifstream in(QNTN_REPRO_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << QNTN_REPRO_GOLDEN
                  << "; regenerate with QNTN_GOLDEN_UPDATE=1";
  std::ostringstream stored;
  stored << in.rdbuf();
  if (stored.str() == computed) return;

  const std::vector<std::string> want = split_lines(stored.str());
  const std::vector<std::string> got = split_lines(computed);
  std::ostringstream diff;
  const std::size_t lines = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < lines; ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w != g) diff << "  golden: " << w << "\n  actual: " << g << '\n';
  }
  ADD_FAILURE() << "reproduction numbers moved against " << QNTN_REPRO_GOLDEN
                << " (regenerate with QNTN_GOLDEN_UPDATE=1 only when a "
                   "number moves on purpose):\n"
                << diff.str();
}

// The plan decides only which links exist and evaluates each link's eta at
// the query time through the rebuild's own calls, so every plan.nN value in
// the golden equals its sweep.nN counterpart, Fig. 8 fidelity included.
TEST(Repro, PlanLinesEqualTheRebuildSweep) {
  std::ifstream in(QNTN_REPRO_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << QNTN_REPRO_GOLDEN;
  std::vector<std::pair<std::string, std::string>> plan_lines;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("plan.", 0) == 0) {
      plan_lines.emplace_back(line.substr(5), line);
    }
    lines.push_back(line);
  }
  ASSERT_EQ(plan_lines.size(), 30u);
  for (const auto& [rest, line] : plan_lines) {
    const std::string sweep = "sweep." + rest;
    EXPECT_NE(std::find(lines.begin(), lines.end(), sweep), lines.end())
        << line << " has no equal sweep line";
  }
}

}  // namespace
}  // namespace qntn
