// Golden-file schema test for the JSONL run trace: one small fixed-seed
// space-ground run per serving mode must (a) be byte-deterministic, (b) emit
// exactly the event shapes and trace bytes recorded in trace_schema.golden,
// and (c) produce counters that reconcile with the ArchitectureMetrics
// totals. The golden file holds, per serving mode (config vocabulary), one
// line per observed event shape plus one FNV-1a digest of the full trace:
//
//   <mode> <type>[ status=<status>]: <comma-separated keys in emission order>
//   <mode> fnv1a: <16 hex digits>
//
// The digest pins every em and traffic trace field value, not just the
// shapes. To regenerate after an intentional trace change:
//
//   QNTN_GOLDEN_UPDATE=1 ./build/tests/test_obs --gtest_filter=TraceSchema.*

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace qntn {
namespace {

/// Workload: small enough for the suite, big enough that every event shape
/// of the mode occurs (served + unserved requests, handovers; congestion in
/// entanglement at its defaults; backpressure and deadline drops in
/// traffic).
core::QntnConfig golden_config(core::ServingMode mode) {
  core::QntnConfig config;
  config.day_duration = 21'600.0;  // 6 hours
  config.ephemeris_step = 60.0;
  config.request_count = 25;
  config.request_steps = 36;
  config.serving_mode = mode;
  // A few dozen arrivals per 600 s window through single-pair nodes with
  // long services: some wait past the deadline, some find the backlog full.
  config.traffic_arrival_rate = 0.02;
  config.traffic_node_capacity = 1;
  config.traffic_service_overhead = 30.0;
  config.traffic_max_queue_delay = 10.0;
  config.traffic_max_backlog = 2;
  return config;
}

struct Mode {
  const char* name;  ///< config vocabulary (serving_mode = ...)
  core::ServingMode mode;
};

constexpr Mode kModes[] = {
    {"single_shot", core::ServingMode::SingleShot},
    {"entanglement", core::ServingMode::Entanglement},
    {"traffic", core::ServingMode::Traffic},
};

constexpr std::size_t kSatellites = 36;

struct TracedRun {
  std::string trace;
  core::ArchitectureMetrics metrics;
  obs::MetricsSnapshot snapshot;
};

TracedRun run_traced(core::ServingMode mode) {
  TracedRun run;
  obs::Registry registry;
  std::ostringstream out;
  obs::TraceSink sink(out, obs::TraceLevel::Requests);
  core::RunContext ctx;
  ctx.config = golden_config(mode);
  ctx.registry = &registry;
  ctx.trace = &sink;
  run.metrics = core::evaluate_space_ground(ctx, kSatellites);
  run.trace = out.str();
  run.snapshot = registry.snapshot();
  return run;
}

struct ParsedLine {
  std::string type;
  std::optional<std::string> status;
  std::vector<std::string> keys;
};

/// Minimal scan of one flat JSONL line: every quoted token followed by ':'
/// is a key; other quoted tokens are string values.
ParsedLine parse_line(const std::string& line) {
  ParsedLine parsed;
  std::string last_key;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] != '"') continue;
    std::string text;
    std::size_t j = i + 1;
    for (; j < line.size() && line[j] != '"'; ++j) {
      if (line[j] == '\\' && j + 1 < line.size()) {
        text += line[++j];
      } else {
        text += line[j];
      }
    }
    std::size_t k = j + 1;
    while (k < line.size() && line[k] == ' ') ++k;
    if (k < line.size() && line[k] == ':') {
      parsed.keys.push_back(text);
      last_key = text;
    } else {
      if (last_key == "type") parsed.type = text;
      if (last_key == "status") parsed.status = text;
    }
    i = j;
  }
  return parsed;
}

/// 64-bit FNV-1a over the trace bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The golden lines of one mode's trace: its event shapes and its digest.
std::set<std::string> schema_of(const std::string& mode,
                                const std::string& trace) {
  std::set<std::string> schema;
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    const ParsedLine parsed = parse_line(line);
    std::string signature = mode + " " + parsed.type;
    if (parsed.status.has_value()) signature += " status=" + *parsed.status;
    signature += ":";
    for (std::size_t i = 0; i < parsed.keys.size(); ++i) {
      signature += i == 0 ? " " : ",";
      signature += parsed.keys[i];
    }
    schema.insert(std::move(signature));
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(trace)));
  schema.insert(mode + " fnv1a: " + digest);
  return schema;
}

std::size_t count_type(const std::string& trace, const std::string& type) {
  std::size_t count = 0;
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    if (parse_line(line).type == type) ++count;
  }
  return count;
}

/// Unsigned value of `"key": ` in one flat JSONL line.
std::uint64_t uint_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  return std::stoull(line.substr(line.find(tag) + tag.size()));
}

/// Per-source trees the engine built: under the default inverse-eta metric
/// no tree outlives its snapshot, so one per step for each source with a
/// request that got past the isolation check and had a path.
std::size_t source_trees(const std::string& trace) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> step_sources;
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    const ParsedLine parsed = parse_line(line);
    if (parsed.type != "request" || parsed.status == "no_path" ||
        parsed.status == "isolated") {
      continue;
    }
    step_sources.emplace(uint_field(line, "step"), uint_field(line, "src"));
  }
  return step_sources.size();
}

TEST(TraceSchema, MatchesGoldenFile) {
  std::set<std::string> schema;
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    const TracedRun run = run_traced(mode.mode);
    const core::ArchitectureMetrics& m = run.metrics;
    // Guard: the workload must exercise every event shape of the mode, or
    // the golden comparison silently weakens.
    ASSERT_GT(m.requests_served, 0u);
    ASSERT_GT(m.requests_no_path + m.requests_isolated, 0u);
    if (mode.mode == core::ServingMode::Traffic) {
      ASSERT_GT(m.requests_rejected_capacity, 0u);
      ASSERT_GT(m.requests_dropped_deadline, 0u);
    } else {
      ASSERT_GT(m.handovers, 0u);
    }
    if (mode.mode == core::ServingMode::Entanglement) {
      ASSERT_GT(m.requests_congested, 0u);
    }
    schema.merge(schema_of(mode.name, run.trace));
  }

  std::string computed;
  for (const std::string& line : schema) computed += line + "\n";
  const std::string golden_path =
      std::string(QNTN_OBS_TEST_DATA_DIR) + "/trace_schema.golden";
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
  EXPECT_EQ(schema, golden) << "computed schema (regenerate with "
                               "QNTN_GOLDEN_UPDATE=1 only when the trace "
                               "changes on purpose):\n"
                            << computed;
}

TEST(TraceSchema, ByteDeterministicAcrossRuns) {
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    const TracedRun a = run_traced(mode.mode);
    const TracedRun b = run_traced(mode.mode);
    EXPECT_EQ(a.trace, b.trace);
  }
}

TEST(TraceSchema, CountersReconcileWithMetrics) {
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    const TracedRun run = run_traced(mode.mode);
    const core::ArchitectureMetrics& m = run.metrics;
    const bool traffic = mode.mode == core::ServingMode::Traffic;
    const auto counter = [&](const char* name) {
      const auto it = run.snapshot.counters.find(name);
      return it == run.snapshot.counters.end() ? std::uint64_t{0}
                                               : it->second;
    };

    // Counters mirror the result struct exactly.
    EXPECT_EQ(counter("scenario.snapshots"), 36u);
    EXPECT_EQ(counter("scenario.requests_issued"), m.requests_issued);
    EXPECT_EQ(counter("scenario.requests_served"), m.requests_served);
    EXPECT_EQ(counter("scenario.requests_no_path"), m.requests_no_path);
    EXPECT_EQ(counter("scenario.requests_isolated"), m.requests_isolated);
    EXPECT_EQ(counter("scenario.requests_congested"), m.requests_congested);
    EXPECT_EQ(counter("scenario.requests_rejected_capacity"),
              m.requests_rejected_capacity);
    EXPECT_EQ(counter("scenario.requests_dropped_deadline"),
              m.requests_dropped_deadline);
    EXPECT_EQ(counter("scenario.handovers"), m.handovers);

    // Accounting identities.
    EXPECT_EQ(m.requests_served + m.requests_no_path + m.requests_isolated +
                  m.requests_congested + m.requests_rejected_capacity +
                  m.requests_dropped_deadline,
              m.requests_issued);
    if (!traffic) {
      EXPECT_EQ(m.requests_issued, 25u * 36u);
      // served/issued equals the served fraction exactly (same batch each
      // step).
      EXPECT_NEAR(static_cast<double>(m.requests_served) /
                      static_cast<double>(m.requests_issued),
                  m.served_percent / 100.0, 1e-12);
    }

    // The trace agrees with the counters line for line.
    EXPECT_EQ(count_type(run.trace, "request"), m.requests_issued);
    EXPECT_EQ(count_type(run.trace, "snapshot"), 36u);
    EXPECT_EQ(count_type(run.trace, "handover"), m.handovers);
    EXPECT_EQ(count_type(run.trace, "run_start"), 1u);
    EXPECT_EQ(count_type(run.trace, "run_end"), 1u);

    // Phase timers ran under the ambient registry.
    EXPECT_EQ(run.snapshot.stats.at("time.ephemeris_s").count(), 1u);
    EXPECT_EQ(run.snapshot.stats.at("time.coverage_s").count(), 1u);
    EXPECT_EQ(run.snapshot.stats.at("time.serving_s").count(), 1u);
    if (mode.mode == core::ServingMode::Entanglement) {
      EXPECT_EQ(counter("em.requests_served"), m.requests_served);
    } else {
      EXPECT_GT(source_trees(run.trace), 0u);
      EXPECT_EQ(counter("net.bf_trees"),
                source_trees(run.trace) + counter("sim.reroute_trees"));
      EXPECT_EQ(counter("net.hop_trees"), 0u);
    }
  }
}

}  // namespace
}  // namespace qntn
