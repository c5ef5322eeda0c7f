#include "sim/coverage.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace qntn::sim {

CoverageResult analyze_coverage(const NetworkModel& model,
                                const TopologyProvider& topology,
                                const CoverageOptions& options) {
  QNTN_REQUIRE(options.duration > 0.0 && options.step > 0.0,
               "coverage options must be positive");
  CoverageResult result;
  const auto steps =
      static_cast<std::size_t>(std::ceil(options.duration / options.step));

  // Connectivity only depends on the edge set, which is constant within a
  // topology epoch, so both paths evaluate one representative step (the
  // first) per run of equal epochs. On a provider without an epoch
  // partition every step is its own representative.
  const bool partitioned = topology.epoch_count() > 0;
  std::vector<std::size_t> distinct_index(steps, 0);
  std::vector<double> representative;
  std::size_t last_epoch = TopologyProvider::kNoEpoch;
  for (std::size_t i = 0; i < steps; ++i) {
    const double t = static_cast<double>(i) * options.step;
    const std::size_t epoch = partitioned ? topology.epoch_of(t) : i;
    if (representative.empty() || epoch != last_epoch) {
      representative.push_back(t);
      last_epoch = epoch;
    }
    distinct_index[i] = representative.size() - 1;
  }

  std::vector<std::uint8_t> epoch_connected(representative.size(), 0);
  const auto evaluate = [&](std::size_t begin, std::size_t end) {
    for (std::size_t e = begin; e < end; ++e) {
      epoch_connected[e] =
          topology.lans_connected_at(model, representative[e]) ? 1 : 0;
    }
    obs::count("sim.connectivity_queries", end - begin);
  };
  if (options.pool != nullptr && partitioned) {
    parallel_for_chunks(
        *options.pool, representative.size(), options.pool->size(),
        [&](std::size_t begin, std::size_t end) {
          const obs::ScopedRegistry ambient_registry(options.registry);
          const obs::ScopedProfiler ambient_profiler(options.profiler);
          const obs::Span span("sim.coverage_chunk", end - begin);
          evaluate(begin, end);
        });
  } else {
    evaluate(0, representative.size());
  }

  // Ordered reduction, identical for both paths (and bit-identical to the
  // historical single loop): samples are merged in step order.
  result.step_connected.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const double t = static_cast<double>(i) * options.step;
    const double dt = std::min(options.step, options.duration - t);
    const bool connected = epoch_connected[distinct_index[i]] != 0;
    result.step_connected.push_back(connected ? 1 : 0);
    result.intervals.add_sample(t, dt, connected);
  }
  result.covered_s = result.intervals.total();
  result.percent = 100.0 * result.covered_s / options.duration;
  return result;
}

}  // namespace qntn::sim
