#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file report.hpp
/// The benchmark's metric declarations (mirrored by the root
/// BENCHMARK.json, which `validate` checks), order statistics, and the
/// results file that `run` writes and `compare` / `validate` read.

namespace qntn::benchmark {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  ///< "lower" or "higher"
  /// Share of the base median by which an end-to-end metric may worsen
  /// before `compare` calls it a regression; 0 for per-layer metrics.
  double bound = 0.0;
};

[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// First quartile, median and third quartile as Python's
/// statistics.quantiles(values, n=4) computes them (exclusive method).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Shortest round-trip decimal rendering of a finite double (JSON-safe).
[[nodiscard]] std::string json_number(double value);

/// Provenance stamped into every results file.
struct Manifest {
  std::string git_describe;
  std::string compiler;
  std::string build_type;
  std::string cpu_model;
  std::size_t nproc = 0;
  std::string seed;  ///< "library defaults" or the --seed value
  std::size_t threads = 0;
  std::size_t measurements = 0;  ///< per workload
  double measure_seconds = 0.0;  ///< budget of one measurement
  bool smoke = false;
};

/// Manifest of this build on this host (run settings left unset).
[[nodiscard]] Manifest host_manifest();

struct WorkloadResult {
  std::string name;
  std::string config_digest;
  std::string output_digest;
  bool digests_agree = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// End-to-end metric name -> one value per measurement.
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer metric name -> value from the traced run.
  std::map<std::string, double> layers;
};

/// Render the results file (schema "qntn-benchmark-v1").
[[nodiscard]] std::string results_json(const Manifest& manifest,
                                       const std::vector<WorkloadResult>& rows);

/// Print both medians, quartiles, ratio and a verdict per workload and
/// end-to-end metric. Returns 1 on any regression beyond its bound or any
/// error-rate increase, else 0.
[[nodiscard]] int compare_results(const std::string& base_path,
                                  const std::string& next_path);

/// Check a results file against BENCHMARK.json. Returns 0 when every
/// declared workload and metric is present with matching unit (and, end to
/// end, direction and bound), names use only [A-Za-z0-9_.-], and no
/// evaluation failed; else prints each problem and returns 1.
[[nodiscard]] int validate_results(const std::string& benchmark_path,
                                   const std::string& results_path);

}  // namespace qntn::benchmark
