#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"

namespace qntn::benchmark {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A name BENCHMARK.json accepts: a letter or digit, then at most 63 of
/// [A-Za-z0-9_.-].
bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Quartiles stored for one end-to-end metric of one workload.
Quartiles stored_quartiles(const json::Value& metric) {
  return {metric.at("q1").as_number(), metric.at("median").as_number(),
          metric.at("q3").as_number()};
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"wall_s", "s", "lower", 0.25},
      {"setup_s", "s", "lower", 0.25},
      {"requests_per_s", "1/s", "higher", 0.25},
      {"peak_rss_mb", "MiB", "lower", 0.05},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"orbit.build_model_s", "s", "lower"},
      {"plan.make_topology_s", "s", "lower"},
      {"plan.graph_queries", "count", "lower"},
      {"plan.epoch_builds", "count", "lower"},
      {"plan.epoch_hit_ratio", "ratio", "higher"},
      {"sim.coverage_s", "s", "lower"},
      {"sim.topology_query_us", "us/call", "lower"},
      {"sim.rebuild_queries", "count", "lower"},
      {"sim.run_scenario_s", "s", "lower"},
      {"sim.serving_s", "s", "lower"},
      {"sim.serve_us_per_request", "us", "lower"},
      {"sim.epoch_cache_builds", "count", "lower"},
      {"sim.epoch_cache_hit_ratio", "ratio", "higher"},
      {"net.bf_trees", "count", "lower"},
      {"net.bf_rounds", "count", "lower"},
      {"net.tree_delta_repairs", "count", "higher"},
      {"net.bf_tree_us", "us/call", "lower"},
      {"em.route_cache_hits", "count", "higher"},
      {"em.shared_route_builds", "count", "lower"},
      {"em.swaps", "count", "higher"},
      {"em.purification_rounds", "count", "lower"},
      {"em.pairs_consumed", "count", "lower"},
      {"quantum.fig5_sweep_s", "s", "lower"},
      {"scenario.requests_issued", "count", "higher"},
      {"scenario.served_ratio", "ratio", "higher"},
      {"scenario.requests_dropped_deadline", "count", "lower"},
      {"scenario.requests_congested", "count", "lower"},
      {"traffic.peak_queue_depth", "count", "lower"},
      {"traffic.waiting_p99_s", "s", "lower"},
      {"obs.overhead_pct", "%", "lower"},
  };
  return kMetrics;
}

Quartiles quartiles(std::vector<double> values) {
  QNTN_REQUIRE(!values.empty(), "quartiles of no values");
  std::sort(values.begin(), values.end());
  const std::size_t count = values.size();
  if (count == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): cut point i of n = 4 sits at
  // rank i * (count + 1) / 4, interpolated, clamped to [1, count - 1].
  const auto cut = [&](std::size_t i) {
    const std::size_t m = count + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, count - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  for (const int digits : {15, 16, 17}) {
    std::snprintf(buffer, sizeof buffer, "%.*g", digits, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

Manifest host_manifest() {
  Manifest manifest;
  manifest.git_describe = QNTN_BENCHMARK_GIT_DESCRIBE;
  manifest.build_type = QNTN_BENCHMARK_BUILD_TYPE;
#if defined(__clang__)
  manifest.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  manifest.compiler = "gcc " __VERSION__;
#else
  manifest.compiler = "unknown";
#endif
  manifest.nproc = std::thread::hardware_concurrency();
  manifest.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        manifest.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  return manifest;
}

std::string results_json(const Manifest& manifest,
                         const std::vector<WorkloadResult>& rows) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"qntn-benchmark-v1\",\n  \"manifest\": {"
      << "\"git_describe\": " << quoted(manifest.git_describe)
      << ", \"compiler\": " << quoted(manifest.compiler)
      << ", \"build_type\": " << quoted(manifest.build_type)
      << ", \"nproc\": " << manifest.nproc
      << ", \"cpu_model\": " << quoted(manifest.cpu_model)
      << ", \"seed\": " << quoted(manifest.seed)
      << ", \"threads\": " << manifest.threads
      << ", \"measurements\": " << manifest.measurements
      << ", \"measure_seconds\": " << json_number(manifest.measure_seconds)
      << ", \"smoke\": " << (manifest.smoke ? "true" : "false") << "},\n"
      << "  \"workloads\": {";
  for (std::size_t w = 0; w < rows.size(); ++w) {
    const WorkloadResult& row = rows[w];
    const double error_rate =
        row.attempted > 0 ? static_cast<double>(row.failed) /
                                static_cast<double>(row.attempted)
                          : 1.0;
    out << (w == 0 ? "\n" : ",\n") << "    " << quoted(row.name) << ": {"
        << "\"config_digest\": " << quoted(row.config_digest)
        << ", \"output_digest\": " << quoted(row.output_digest)
        << ", \"digests_agree\": " << (row.digests_agree ? "true" : "false")
        << ", \"attempted\": " << row.attempted
        << ", \"failed\": " << row.failed
        << ", \"error_rate\": " << json_number(error_rate)
        << ",\n      \"end_to_end\": {";
    bool first = true;
    for (const MetricSpec& spec : end_to_end_metrics()) {
      const auto it = row.samples.find(std::string(spec.name));
      if (it == row.samples.end() || it->second.empty()) continue;
      const Quartiles q = quartiles(it->second);
      out << (first ? "\n" : ",\n") << "        " << quoted(spec.name)
          << ": {\"unit\": " << quoted(spec.unit)
          << ", \"better\": " << quoted(spec.better)
          << ", \"bound\": " << json_number(spec.bound)
          << ", \"median\": " << json_number(q.median)
          << ", \"q1\": " << json_number(q.q1)
          << ", \"q3\": " << json_number(q.q3) << ", \"samples\": [";
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_number(it->second[i]);
      }
      out << "]}";
      first = false;
    }
    out << "},\n      \"per_layer\": {";
    first = true;
    for (const MetricSpec& spec : per_layer_metrics()) {
      const auto it = row.layers.find(std::string(spec.name));
      if (it == row.layers.end()) continue;
      out << (first ? "\n" : ",\n") << "        " << quoted(spec.name)
          << ": {\"unit\": " << quoted(spec.unit)
          << ", \"value\": " << json_number(it->second) << "}";
      first = false;
    }
    out << "}}";
  }
  out << "\n  }\n}\n";
  return out.str();
}

int compare_results(const std::string& base_path,
                    const std::string& next_path) {
  const json::Value base = json::Value::parse(read_file(base_path));
  const json::Value next = json::Value::parse(read_file(next_path));
  int status = 0;
  for (const auto& [name, base_row] : base.at("workloads").members()) {
    const json::Value* next_row = next.at("workloads").find(name);
    if (next_row == nullptr) {
      std::printf("%s: missing from %s\n", name.c_str(), next_path.c_str());
      status = 1;
      continue;
    }
    std::printf("%s\n", name.c_str());
    std::printf("  %-15s %-8s %12s %12s %12s %12s %12s %12s %8s  %s\n",
                "metric", "unit", "base_q1", "base_med", "base_q3", "new_q1",
                "new_med", "new_q3", "ratio", "verdict");
    bool moved = false;
    for (const MetricSpec& spec : end_to_end_metrics()) {
      const json::Value* b = base_row.at("end_to_end").find(spec.name);
      const json::Value* n = next_row->at("end_to_end").find(spec.name);
      if (b == nullptr || n == nullptr) {
        std::printf("  %-15s missing\n", std::string(spec.name).c_str());
        status = 1;
        continue;
      }
      const Quartiles bq = stored_quartiles(*b);
      const Quartiles nq = stored_quartiles(*n);
      if (bq.median == 0.0) {
        std::printf("  %-15s base median is 0\n", std::string(spec.name).c_str());
        status = 1;
        continue;
      }
      // The change, as a share of the base median with positive = worse,
      // spans from the new run's favourable quartile against the base's
      // unfavourable one (optimistic) to the reverse (pessimistic). The
      // bound is resolved only when that interval lies on one side of it.
      const bool lower = spec.better == "lower";
      const double sign = lower ? 1.0 : -1.0;
      const double base_good = lower ? bq.q1 : bq.q3;
      const double base_bad = lower ? bq.q3 : bq.q1;
      const double next_good = lower ? nq.q1 : nq.q3;
      const double next_bad = lower ? nq.q3 : nq.q1;
      const double optimistic = sign * (next_good - base_bad) / bq.median;
      const double pessimistic = sign * (next_bad - base_good) / bq.median;
      const char* verdict = "within bound";
      if (optimistic > spec.bound) {
        verdict = "WORSE beyond bound";
        status = 1;
      } else if (pessimistic > spec.bound) {
        verdict = "unresolved (spread straddles bound)";
      } else if (pessimistic < 0.0) {
        verdict = "better";
      }
      moved = moved || std::string_view(verdict) != "within bound";
      const double ratio = nq.median / bq.median;
      std::printf(
          "  %-15s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f  %s "
          "(bound %.0f%%)\n",
          std::string(spec.name).c_str(), std::string(spec.unit).c_str(),
          bq.q1, bq.median, bq.q3, nq.q1, nq.median, nq.q3, ratio, verdict,
          100.0 * spec.bound);
    }
    const double base_errors = base_row.at("error_rate").as_number();
    const double next_errors = next_row->at("error_rate").as_number();
    if (next_errors > base_errors) {
      std::printf("  error_rate rose: %.6g -> %.6g\n", base_errors,
                  next_errors);
      status = 1;
    }
    if (base_row.at("config_digest").as_string() !=
        next_row->at("config_digest").as_string()) {
      std::printf("  configs differ (seed or workload definition)\n");
    } else if (base_row.at("output_digest").as_string() !=
               next_row->at("output_digest").as_string()) {
      std::printf("  simulated outputs differ (digest %s -> %s)\n",
                  base_row.at("output_digest").as_string().c_str(),
                  next_row->at("output_digest").as_string().c_str());
    }
    if (moved) {
      // Name the layer that moved most, relative to its base value. The
      // tracing overhead is the measurement's own, not a layer's work.
      std::string top;
      double top_change = 0.0;
      double top_base = 0.0;
      double top_next = 0.0;
      for (const auto& [layer, value] : base_row.at("per_layer").members()) {
        const json::Value* other = next_row->at("per_layer").find(layer);
        if (other == nullptr || layer.rfind("obs.", 0) == 0) continue;
        const double b = value.at("value").as_number();
        const double n = other->at("value").as_number();
        const double change =
            b != 0.0 ? std::fabs(n - b) / std::fabs(b)
                     : (n != 0.0 ? std::numeric_limits<double>::infinity()
                                 : 0.0);
        if (change > top_change) {
          top = layer;
          top_change = change;
          top_base = b;
          top_next = n;
        }
      }
      if (!top.empty()) {
        std::printf("  largest per-layer change: %s %.6g -> %.6g (%+.1f%%)\n",
                    top.c_str(), top_base, top_next,
                    top_base != 0.0
                        ? 100.0 * (top_next - top_base) / std::fabs(top_base)
                        : std::numeric_limits<double>::infinity());
      }
    }
  }
  std::printf("%s\n", status == 0 ? "compare: no regression"
                                  : "compare: REGRESSION");
  return status;
}

int validate_results(const std::string& benchmark_path,
                     const std::string& results_path) {
  const json::Value declared = json::Value::parse(read_file(benchmark_path));
  const json::Value results = json::Value::parse(read_file(results_path));
  std::vector<std::string> problems;
  const auto check_name = [&problems](const std::string& name) {
    if (!valid_name(name)) problems.push_back("invalid name '" + name + "'");
  };

  const json::Value& rows = results.at("workloads");
  std::set<std::string> declared_workloads;
  for (const json::Value& workload : declared.at("workloads").items()) {
    const std::string& name = workload.at("name").as_string();
    check_name(name);
    declared_workloads.insert(name);
    const json::Value* row = rows.find(name);
    if (row == nullptr) {
      problems.push_back(name + ": workload missing from results");
      continue;
    }
    if (row->at("failed").as_number() != 0.0 ||
        !row->at("digests_agree").as_bool()) {
      problems.push_back(name + ": evaluations failed or repeats disagree");
    }
    for (const auto& [section, keys] :
         {std::pair<const char*, std::vector<const char*>>{
              "end_to_end", {"unit", "better", "bound"}},
          {"per_layer", {"unit"}}}) {
      const json::Value& got = row->at(section);
      std::set<std::string> expected;
      for (const json::Value& metric : declared.at(section).items()) {
        const std::string& metric_name = metric.at("name").as_string();
        check_name(metric_name);
        expected.insert(metric_name);
        const json::Value* value = got.find(metric_name);
        if (value == nullptr) {
          problems.push_back(name + ": " + section + " metric " +
                             metric_name + " missing");
          continue;
        }
        for (const char* key : keys) {
          const json::Value& want = metric.at(key);
          const json::Value& have = value->at(key);
          const bool same =
              want.is_number()
                  ? have.is_number() &&
                        std::fabs(want.as_number() - have.as_number()) < 1e-12
                  : have.is_string() && want.as_string() == have.as_string();
          if (!same) {
            problems.push_back(name + ": " + metric_name + " " + key +
                               " differs from BENCHMARK.json");
          }
        }
      }
      for (const auto& [metric_name, value] : got.members()) {
        (void)value;
        if (expected.count(metric_name) == 0) {
          problems.push_back(name + ": " + section + " metric " + metric_name +
                             " not declared in BENCHMARK.json");
        }
      }
    }
  }
  for (const auto& [name, row] : rows.members()) {
    (void)row;
    if (declared_workloads.count(name) == 0) {
      problems.push_back(name + ": workload not declared in BENCHMARK.json");
    }
  }
  for (const std::string& problem : problems) {
    std::printf("validate: %s\n", problem.c_str());
  }
  std::printf("validate: %zu problem(s) in %s against %s\n", problems.size(),
              results_path.c_str(), benchmark_path.c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace qntn::benchmark
