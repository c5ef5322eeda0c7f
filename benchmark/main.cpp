// qntn_benchmark — the end-to-end benchmark program (see README.md).
//
//   qntn_benchmark once --workload W [--seed S] [--trace 0|1] [--smoke]
//       One evaluation of one workload in this process, after timing its
//       set-up once; outputs checked. With --trace 1 a traced run follows
//       and the per-layer metrics replace the end-to-end ones.
//   qntn_benchmark measure --workload W [--seed S] [--seconds T] [--trace 0|1]
//                          [--smoke]
//       One measurement: repeats `once` in fresh child processes until T
//       seconds are spent (at least one; default 25) and reports the
//       fastest repeat's wall_s and requests_per_s and the median set-up
//       and peak RSS; with --trace 1, one traced child's per-layer metrics.
//   qntn_benchmark run [--out FILE] [--seed S] [--smoke]
//       The full protocol: per workload one untimed warm-up child and 5
//       measurements of 25 s (smoke: 2 of one repeat each), interleaved
//       round-robin, then one traced run each. Writes the median and
//       quartiles of the measurements to the results JSON (default
//       results.json).
//   qntn_benchmark compare BASE.json NEW.json
//   qntn_benchmark validate BENCHMARK.json RESULTS.json
//
// once and measure print every metric by name with its unit; their last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace qntn;
using namespace qntn::benchmark;
using Clock = std::chrono::steady_clock;

/// Seconds one measurement spends by default: BENCHMARK.json's
/// run_seconds, so `run` and the BENCHMARK.json command measure alike.
constexpr double kMeasureSeconds = 25.0;

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  bool trace = false;
  bool smoke = false;
  std::string out = "results.json";
  std::vector<std::string> positional;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text.front() == '-') {
    throw Error("invalid value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      options.positional.push_back(arg);
      continue;
    }
    std::optional<std::string> inline_value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.erase(eq);
    }
    const auto value = [&]() -> std::string {
      if (inline_value.has_value()) return *inline_value;
      if (i + 1 >= argc) throw Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(arg, value()));
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") throw Error("--trace takes 0 or 1");
      options.trace = trace == "1";
    } else if (arg == "--out") {
      options.out = value();
    } else {
      throw Error("unknown flag: " + arg);
    }
  }
  return options;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : quartiles(values).median;
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Print every metric by name with its unit, then the result JSON line.
void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values) {
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(std::string(spec.name));
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%-36s %14.6g %s\n", std::string(spec.name).c_str(), value,
                std::string(spec.unit).c_str());
    line += (first ? "\"" : ", \"") + std::string(spec.name) +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            std::string(spec.unit) + "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

int cmd_once(const Options& options) {
  const Spec spec =
      make_spec(find_workload(options.workload), options.seed, options.smoke);
  const std::string name(spec.workload->name);
  ThreadPool pool(1);
  std::printf("workload %s%s\n", name.c_str(), spec.smoke ? " (smoke)" : "");
  std::printf("config_digest %s\n", config_digest(spec).c_str());

  std::size_t attempted = 1;
  std::size_t failed = 0;
  std::map<std::string, double> values;
  try {
    const double setup = time_setup(spec, pool);
    const Clock::time_point start = Clock::now();
    const Outputs out = run_workload(spec, pool);
    const double wall = seconds_since(start);
    const std::vector<std::string> errors = check_outputs(spec, out);
    for (const std::string& error : errors) {
      std::fprintf(stderr, "qntn_benchmark: %s: %s\n", name.c_str(),
                   error.c_str());
    }
    if (!errors.empty()) ++failed;
    std::printf("digest %s\n", output_digest(out).c_str());
    values = {{"wall_s", wall},
              {"setup_s", setup},
              {"requests_per_s",
               static_cast<double>(requests_issued(out)) / wall}};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qntn_benchmark: %s threw: %s\n", name.c_str(),
                 e.what());
    ++failed;
  }

  if (!options.trace) {
    values["peak_rss_mb"] = peak_rss_mib();
    print_result(attempted, failed, end_to_end_metrics(), values);
    return 0;
  }
  ++attempted;
  std::map<std::string, double> layers;
  try {
    layers = traced_run(spec, pool, values["wall_s"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qntn_benchmark: traced %s threw: %s\n",
                 name.c_str(), e.what());
    ++failed;
  }
  print_result(attempted, failed, per_layer_metrics(), layers);
  return 0;
}

/// What a parent reads back from one `once` child.
struct ChildResult {
  bool ok = false;
  std::string config_digest;
  std::string digest;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
};

std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t size = readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (size <= 0) return argv0;
  return std::string(buffer, static_cast<std::size_t>(size));
}

std::string shell_quote(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// Run `once` in a child process and wait for it. The child's stderr
/// passes through; its stdout is parsed.
ChildResult run_child(const std::string& self, const Options& options,
                      const Workload& workload, bool trace) {
  std::string command = shell_quote(self) + " once --workload " +
                        std::string(workload.name) + " --trace " +
                        (trace ? "1" : "0");
  if (options.seed.has_value()) {
    command += " --seed " + std::to_string(*options.seed);
  }
  if (options.smoke) command += " --smoke";
  ChildResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::string output;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);

  std::istringstream lines(output);
  std::string line;
  std::string last;
  while (std::getline(lines, line)) {
    if (line.rfind("config_digest ", 0) == 0) {
      result.config_digest = line.substr(14);
    } else if (line.rfind("digest ", 0) == 0) {
      result.digest = line.substr(7);
    }
    if (!line.empty()) last = line;
  }
  if (status != 0) return result;
  try {
    const json::Value parsed = json::Value::parse(last);
    result.attempted =
        static_cast<std::size_t>(parsed.at("attempted").as_number());
    result.failed = static_cast<std::size_t>(parsed.at("failed").as_number());
    for (const auto& [name, metric] : parsed.at("metrics").members()) {
      result.metrics[name] = metric.at("value").as_number();
    }
    result.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qntn_benchmark: unreadable child result: %s\n",
                 e.what());
  }
  return result;
}

/// Fold one child into its workload's row: evaluation counts, plus a
/// failure for a child that died or whose outputs differ from the first's.
void absorb(WorkloadResult& row, const ChildResult& child) {
  if (!child.ok) {
    ++row.attempted;
    ++row.failed;
    return;
  }
  row.attempted += child.attempted;
  row.failed += child.failed;
  row.config_digest = child.config_digest;
  if (row.output_digest.empty()) row.output_digest = child.digest;
  if (child.digest != row.output_digest) {
    std::fprintf(stderr,
                 "qntn_benchmark: output digest %s differs from the first "
                 "repeat's %s\n",
                 child.digest.c_str(), row.output_digest.c_str());
    row.digests_agree = false;
    ++row.failed;
  }
}

/// One measurement of a workload: `once` children until `budget` seconds
/// are spent (at least one), each folded into `row`. Time and throughput
/// report the fastest repeat: on a shared host a repeat is slowed, never
/// sped up, by other tenants, and whole repeats run 30-45 % slow at random,
/// which moves a median of a few repeats but rarely the fastest. Set-up and
/// memory report the median. `run` and `measure` both reduce this way.
std::map<std::string, double> measure_workload(const std::string& self,
                                               const Options& options,
                                               const Workload& workload,
                                               double budget,
                                               WorkloadResult& row) {
  std::map<std::string, std::vector<double>> samples;
  double spent = 0.0;
  for (std::size_t repeat = 1;; ++repeat) {
    const Clock::time_point start = Clock::now();
    const ChildResult child = run_child(self, options, workload, false);
    const double elapsed = seconds_since(start);
    absorb(row, child);
    std::printf("%s repeat %zu (%.3g s)", std::string(workload.name).c_str(),
                repeat, elapsed);
    for (const auto& [name, value] : child.metrics) {
      samples[name].push_back(value);
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("%s\n", child.ok ? "" : " FAILED");
    std::fflush(stdout);
    spent += elapsed;
    // Start another repeat only if it should end within the budget.
    if (!child.ok || spent + elapsed > budget) break;
  }
  std::map<std::string, double> reported;
  for (const auto& [name, values] : samples) {
    if (name == "wall_s") {
      reported[name] = *std::min_element(values.begin(), values.end());
    } else if (name == "requests_per_s") {
      reported[name] = *std::max_element(values.begin(), values.end());
    } else {
      reported[name] = median(values);
    }
  }
  return reported;
}

int cmd_measure(const Options& options, const char* argv0) {
  const Workload& workload = find_workload(options.workload);
  const std::string self = self_path(argv0);
  std::printf("workload %s\n", std::string(workload.name).c_str());
  WorkloadResult row;
  std::map<std::string, double> metrics;
  if (options.trace) {
    const ChildResult child = run_child(self, options, workload, true);
    absorb(row, child);
    metrics = child.metrics;
  } else {
    metrics = measure_workload(self, options, workload,
                               options.seconds.value_or(kMeasureSeconds), row);
  }
  std::printf("digest %s\n", row.output_digest.c_str());
  print_result(row.attempted, row.failed,
               options.trace ? per_layer_metrics() : end_to_end_metrics(),
               metrics);
  return 0;
}

int cmd_run(const Options& options, const char* argv0) {
  const std::string self = self_path(argv0);
  const std::size_t measurements = options.smoke ? 2 : 5;
  const double budget = options.smoke ? 0.0 : kMeasureSeconds;
  const std::vector<Workload>& all = workloads();
  std::vector<WorkloadResult> rows(all.size());
  for (std::size_t w = 0; w < all.size(); ++w) {
    rows[w].name = std::string(all[w].name);
    // Untimed warm-up; its outputs are still checked.
    absorb(rows[w], run_child(self, options, all[w], false));
  }
  // Rounds interleave the workloads so a slow host period lands on all of
  // them.
  for (std::size_t round = 1; round <= measurements; ++round) {
    for (std::size_t w = 0; w < all.size(); ++w) {
      const std::map<std::string, double> reported =
          measure_workload(self, options, all[w], budget, rows[w]);
      std::printf("[measurement %zu/%zu] %-18s", round, measurements,
                  std::string(all[w].name).c_str());
      for (const auto& [name, value] : reported) {
        std::printf(" %s=%.6g", name.c_str(), value);
        rows[w].samples[name].push_back(value);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  for (std::size_t w = 0; w < all.size(); ++w) {
    const ChildResult child = run_child(self, options, all[w], true);
    absorb(rows[w], child);
    rows[w].layers = child.metrics;
    std::printf("[traced] %s%s\n", std::string(all[w].name).c_str(),
                child.ok ? "" : " FAILED");
  }

  bool all_correct = true;
  for (WorkloadResult& row : rows) {
    all_correct = all_correct && row.failed == 0;

    std::printf("\n%s  (config %s, output digest %s%s)\n", row.name.c_str(),
                row.config_digest.c_str(), row.output_digest.c_str(),
                row.digests_agree ? "" : ", REPEATS DISAGREE");
    std::printf("  %-36s %14.6g ratio (%zu failed / %zu evaluations)\n",
                "error_rate",
                static_cast<double>(row.failed) /
                    static_cast<double>(row.attempted),
                row.failed, row.attempted);
    for (const MetricSpec& metric : end_to_end_metrics()) {
      const std::vector<double>& values =
          row.samples[std::string(metric.name)];
      if (values.empty()) continue;
      const Quartiles q = quartiles(values);
      std::printf("  %-36s %14.6g %-7s (q1 %.6g, q3 %.6g, n=%zu)\n",
                  std::string(metric.name).c_str(), q.median,
                  std::string(metric.unit).c_str(), q.q1, q.q3, values.size());
    }
    for (const MetricSpec& metric : per_layer_metrics()) {
      const auto it = row.layers.find(std::string(metric.name));
      if (it == row.layers.end()) continue;
      std::printf("  %-36s %14.6g %s\n", std::string(metric.name).c_str(),
                  it->second, std::string(metric.unit).c_str());
    }
  }

  Manifest manifest = host_manifest();
  manifest.seed = options.seed.has_value() ? std::to_string(*options.seed)
                                           : "library defaults";
  manifest.threads = 1;
  manifest.measurements = measurements;
  manifest.measure_seconds = budget;
  manifest.smoke = options.smoke;
  std::ofstream out(options.out);
  out << results_json(manifest, rows);
  if (!out) throw Error("cannot write " + options.out);
  std::printf("\nresults written to %s%s\n", options.out.c_str(),
              all_correct ? "" : " (WITH FAILURES)");
  return all_correct ? 0 : 1;
}

void usage() {
  std::fputs(
      "usage: qntn_benchmark once --workload W [--seed S] [--trace 0|1] "
      "[--smoke]\n"
      "       qntn_benchmark measure --workload W [--seed S] [--seconds T] "
      "[--trace 0|1] [--smoke]\n"
      "       qntn_benchmark run [--out FILE] [--seed S] [--smoke]\n"
      "       qntn_benchmark compare BASE.json NEW.json\n"
      "       qntn_benchmark validate BENCHMARK.json RESULTS.json\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const std::string command = argv[1];
    const Options options = parse_options(argc, argv);
    if ((command == "once" || command == "measure") &&
        options.workload.empty()) {
      throw Error(command + " needs --workload");
    }
    if (command == "once") return cmd_once(options);
    if (command == "measure") return cmd_measure(options, argv[0]);
    if (command == "run") return cmd_run(options, argv[0]);
    if ((command == "compare" || command == "validate") &&
        options.positional.size() == 2) {
      return command == "compare"
                 ? compare_results(options.positional[0], options.positional[1])
                 : validate_results(options.positional[0],
                                    options.positional[1]);
    }
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qntn_benchmark: %s\n", e.what());
    return 2;
  }
}
