#pragma once

#include <cstdint>
#include <vector>

#include "common/interval_set.hpp"
#include "sim/topology.hpp"

/// \file coverage.hpp
/// Coverage analysis, paper Section IV-B: the coverage period T_c (Eq. 6)
/// is the total time during which every pair of LANs is interconnected, and
/// the coverage percentage P (Eq. 7) relates it to the day length. Pairwise
/// LAN connectivity is transitive over graph components, so "every pair
/// connected" is equivalent to "all LANs in one connected component" — one
/// TopologyProvider::lans_connected_at query per step, or per topology
/// epoch on an epoch-partitioned provider (the edge set is constant within
/// an epoch, so the result bits are the same).

namespace qntn {
class ThreadPool;
namespace obs {
class Profiler;
class Registry;
}  // namespace obs
}  // namespace qntn

namespace qntn::sim {

struct CoverageOptions {
  double duration = 86'400.0;  ///< [s], the paper evaluates one day
  double step = 30.0;          ///< [s], the paper's STK sampling interval
  /// Borrowed pool for the parallel engine; nullptr = serial loop. The
  /// engine also needs an epoch-partitioned provider, whose per-epoch
  /// connectivity questions it fans out across the workers.
  ThreadPool* pool = nullptr;
  /// Ambient metrics/profiler to install inside worker tasks (they are
  /// thread-local, so workers do not inherit the caller's); nullptr = none.
  obs::Registry* registry = nullptr;
  obs::Profiler* profiler = nullptr;
};

struct CoverageResult {
  /// Merged connectivity episodes, in seconds of simulation time.
  IntervalSet intervals;
  /// T_c of Eq. (6) [s].
  double covered_s = 0.0;
  /// P of Eq. (7) [%].
  double percent = 0.0;
  /// Per-step connectivity flags (time series for plotting).
  std::vector<std::uint8_t> step_connected;
};

/// Sweep the day and accumulate Eq. (6)/(7).
[[nodiscard]] CoverageResult analyze_coverage(const NetworkModel& model,
                                              const TopologyProvider& topology,
                                              const CoverageOptions& options);

}  // namespace qntn::sim
