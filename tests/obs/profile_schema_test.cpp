// Golden-file schema test for the span profiler's Chrome trace output: a
// small fixed-seed contact-plan run must (a) produce exactly the span names
// recorded in profile_schema.golden, (b) be byte-deterministic once the
// wall-clock ts/dur values are normalised, and (c) emit a document Perfetto
// can load (metadata-named threads, parent spans containing their children).
//
// To regenerate after intentionally adding/removing instrumentation:
//
//   QNTN_GOLDEN_UPDATE=1 ./build/tests/test_obs --gtest_filter=ProfileSchema.*

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "common/json.hpp"
#include "core/experiments.hpp"
#include "obs/profiler.hpp"

namespace qntn {
namespace {

/// Same workload as trace_schema_test, but on the contact-plan topology so
/// the plan.* compile/query spans are exercised too.
core::QntnConfig golden_config() {
  core::QntnConfig config;
  config.day_duration = 21'600.0;  // 6 hours
  config.ephemeris_step = 60.0;
  config.request_count = 25;
  config.request_steps = 36;
  config.topology_mode = core::TopologyMode::ContactPlan;
  return config;
}

constexpr std::size_t kSatellites = 36;

std::string run_profiled(obs::Profiler& profiler) {
  core::RunContext ctx;
  ctx.config = golden_config();
  ctx.profiler = &profiler;
  (void)core::evaluate_space_ground(ctx, kSatellites);
  return profiler.chrome_trace_json();
}

/// Zero out the `"ts": <us>` / `"dur": <us>` values: the only
/// run-dependent bytes in the trace. append_us always renders
/// digits '.' three digits, so a simple scan suffices.
std::string normalize_times(const std::string& trace) {
  std::string out;
  out.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size();) {
    const bool at_ts = trace.compare(i, 6, "\"ts\": ") == 0 ||
                       trace.compare(i, 7, "\"dur\": ") == 0;
    if (!at_ts) {
      out += trace[i++];
      continue;
    }
    const std::size_t colon = trace.find(':', i);
    out.append(trace, i, colon + 2 - i);
    out += "0.000";
    i = colon + 2;
    while (i < trace.size() &&
           (std::isdigit(static_cast<unsigned char>(trace[i])) != 0 ||
            trace[i] == '.')) {
      ++i;
    }
  }
  return out;
}

std::set<std::string> span_names_of(const std::string& trace) {
  std::set<std::string> names;
  const json::Value doc = json::Value::parse(trace);
  for (const json::Value& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() == "X") {
      names.insert(event.at("name").as_string());
    }
  }
  return names;
}

TEST(ProfileSchema, SpanNamesMatchGoldenFile) {
  obs::Profiler profiler;
  const std::string trace = run_profiled(profiler);
  ASSERT_GT(profiler.span_count(), 0u);
  EXPECT_EQ(profiler.dropped(), 0u) << "workload overflowed the span ring";

  const std::set<std::string> names = span_names_of(trace);

  std::string computed;
  for (const std::string& name : names) computed += name + "\n";
  const std::string golden_path =
      std::string(QNTN_OBS_TEST_DATA_DIR) + "/profile_schema.golden";
  const char* update = std::getenv("QNTN_GOLDEN_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << computed;
    std::printf("regenerated %s\n", golden_path.c_str());
    return;
  }
  std::ifstream golden_file(golden_path);
  ASSERT_TRUE(golden_file.is_open())
      << "missing " << golden_path << "; regenerate with QNTN_GOLDEN_UPDATE=1";
  std::set<std::string> golden;
  std::string line;
  while (std::getline(golden_file, line)) {
    if (!line.empty()) golden.insert(line);
  }
  EXPECT_EQ(names, golden) << "computed span names (regenerate with "
                              "QNTN_GOLDEN_UPDATE=1 only when the "
                              "instrumentation changes on purpose):\n"
                           << computed;
}

TEST(ProfileSchema, ByteDeterministicAcrossRunsModuloTimestamps) {
  obs::Profiler a;
  obs::Profiler b;
  const std::string trace_a = normalize_times(run_profiled(a));
  const std::string trace_b = normalize_times(run_profiled(b));
  EXPECT_EQ(trace_a, trace_b);
  // The normalisation really did strip the clock: no residual digits differ.
  EXPECT_NE(trace_a.find("\"ts\": 0.000"), std::string::npos);
}

TEST(ProfileSchema, DocumentLoadsWithNamedThreadsAndNestedSpans) {
  obs::Profiler profiler;
  const json::Value doc = json::Value::parse(run_profiled(profiler));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  bool main_thread_named = false;
  double run_ts = -1.0, run_end = -1.0;
  for (const json::Value& event : doc.at("traceEvents").items()) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "M" && event.at("name").as_string() == "thread_name" &&
        event.at("args").at("name").as_string() == "main") {
      main_thread_named = true;
    }
    if (ph == "X" && event.at("name").as_string() == "sim.run_scenario") {
      run_ts = event.at("ts").as_number();
      run_end = run_ts + event.at("dur").as_number();
      EXPECT_DOUBLE_EQ(event.at("args").at("n").as_number(), 36.0);
    }
  }
  EXPECT_TRUE(main_thread_named);
  ASSERT_GE(run_ts, 0.0) << "sim.run_scenario span missing";

  // Every serving-phase span nests inside the run span (containment is how
  // Perfetto reconstructs the hierarchy).
  for (const json::Value& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() != "X") continue;
    const std::string name = event.at("name").as_string();
    if (name == "sim.coverage" || name == "sim.serving" ||
        name == "sim.serve_step" || name == "plan.graph_at") {
      EXPECT_GE(event.at("ts").as_number(), run_ts) << name;
      EXPECT_LE(event.at("ts").as_number() + event.at("dur").as_number(),
                run_end + 1e-9)
          << name;
    }
  }
}

}  // namespace
}  // namespace qntn
