#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiments.hpp"

/// \file workloads.hpp
/// The benchmark's four workloads and the three ways it drives each one:
/// the untimed-then-timed set-up calls, the user-level run whose wall time
/// is the end-to-end number, and the traced run that calls every layer's
/// public entry point separately from here (outside in) with the existing
/// obs::Registry installed for counts.

namespace qntn::benchmark {

struct Workload {
  std::string_view name;
  /// One line: which layers it loads and why it is in the set.
  std::string_view why;
  /// `key = value` config text (core::parse_config), documented keys only.
  std::string_view config;
  /// The Fig. 5 sweep plus Table III (space-ground at n = 108 and the
  /// air-ground day); otherwise one space-ground day at n = 108.
  bool paper;
};

/// Every workload, in the order runs interleave them.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Lookup by name; throws qntn::Error naming the known workloads.
[[nodiscard]] const Workload& find_workload(std::string_view name);

/// A workload resolved into a configuration and constellation size.
struct Spec {
  const Workload* workload = nullptr;
  core::QntnConfig config;
  std::size_t satellites = 0;
  bool smoke = false;
};

/// Parse the workload's config text; `seed` (when set) overrides both
/// request_seed and traffic_seed. Smoke mode shrinks every workload to
/// n = 12, 96 request steps and traffic rate 0.2.
[[nodiscard]] Spec make_spec(const Workload& workload,
                             std::optional<std::uint64_t> seed, bool smoke);

/// FNV-1a of the serialized effective configuration, as 16 hex digits.
[[nodiscard]] std::string config_digest(const Spec& spec);

/// What one run of a workload returns to its caller.
struct Outputs {
  std::vector<core::ArchitectureMetrics> rows;
  std::vector<core::FidelityPoint> fig5;
};

/// Set-up time [s]: Σ core::build_*_model + core::make_topology for the
/// workload's architectures, called exactly as the run calls them; the
/// median of as many set-ups as fit in 0.5 s (at least one).
[[nodiscard]] double time_setup(const Spec& spec, ThreadPool& pool);

/// The workload's user-level calls (what wall_s times).
[[nodiscard]] Outputs run_workload(const Spec& spec, ThreadPool& pool);

/// Every correctness violation in one run's outputs (empty = correct).
[[nodiscard]] std::vector<std::string> check_outputs(const Spec& spec,
                                                     const Outputs& out);

/// Hash of `%.10g` of every ArchitectureMetrics field and Fig. 5 point.
[[nodiscard]] std::string output_digest(const Outputs& out);

/// Simulated requests issued across the run's evaluations.
[[nodiscard]] std::uint64_t requests_issued(const Outputs& out);

/// The traced run: per-layer metrics by name. `untraced_wall_s` is the
/// same process's wall time of the workload with tracing off, against
/// which obs.overhead_pct compares the traced total.
[[nodiscard]] std::map<std::string, double> traced_run(const Spec& spec,
                                                       ThreadPool& pool,
                                                       double untraced_wall_s);

}  // namespace qntn::benchmark
