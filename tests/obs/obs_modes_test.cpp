// Instrumentation must never change the result: one small space-ground day
// per serving mode on the contact plan, evaluated with no observability,
// with the metrics registry, with the registry plus a Requests-level JSONL
// trace, and with the span profiler, must give bitwise-equal
// ArchitectureMetrics. The field list is the one benchmark/'s output digest
// hashes, so a result that moved here would move the digest too.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace qntn {
namespace {

/// Six hours at a 60 s step, 25 requests at each of 36 steps; the traffic
/// knobs give a few dozen arrivals per window through single-pair nodes, so
/// every mode serves some requests and leaves others unserved.
core::QntnConfig day_config(core::ServingMode mode) {
  core::QntnConfig config;
  config.topology_mode = core::TopologyMode::ContactPlan;
  config.serving_mode = mode;
  config.day_duration = 21'600.0;
  config.ephemeris_step = 60.0;
  config.request_count = 25;
  config.request_steps = 36;
  config.traffic_arrival_rate = 0.02;
  config.traffic_node_capacity = 1;
  config.traffic_service_overhead = 30.0;
  config.traffic_max_queue_delay = 10.0;
  config.traffic_max_backlog = 2;
  return config;
}

constexpr std::size_t kSatellites = 36;

/// Every ArchitectureMetrics field as (name, bits): doubles by their bit
/// pattern, so -0.0 against 0.0 or two NaN payloads count as different.
std::vector<std::pair<std::string, std::uint64_t>> fields(
    const core::ArchitectureMetrics& m) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto real = [&out](const char* name, double value) {
    out.emplace_back(name, std::bit_cast<std::uint64_t>(value));
  };
  const auto count = [&out](const char* name, std::size_t value) {
    out.emplace_back(name, static_cast<std::uint64_t>(value));
  };
  count("satellites", m.satellites);
  real("coverage_percent", m.coverage_percent);
  real("served_percent", m.served_percent);
  real("mean_fidelity", m.mean_fidelity);
  real("mean_transmissivity", m.mean_transmissivity);
  real("mean_hops", m.mean_hops);
  count("requests_issued", m.requests_issued);
  count("requests_served", m.requests_served);
  count("requests_no_path", m.requests_no_path);
  count("requests_isolated", m.requests_isolated);
  count("requests_congested", m.requests_congested);
  count("requests_rejected_capacity", m.requests_rejected_capacity);
  count("requests_dropped_deadline", m.requests_dropped_deadline);
  count("handovers", m.handovers);
  real("latency_p50", m.latency_p50);
  real("latency_p95", m.latency_p95);
  real("latency_p99", m.latency_p99);
  real("waiting_p50", m.waiting_p50);
  real("waiting_p95", m.waiting_p95);
  real("waiting_p99", m.waiting_p99);
  count("em.enabled", m.em.enabled ? 1 : 0);
  count("em.swaps", m.em.swaps);
  count("em.purification_rounds", m.em.purification_rounds);
  count("em.pairs_consumed", m.em.pairs_consumed);
  count("em.slo_met", m.em.slo_met);
  count("em.multipath_spills", m.em.multipath_spills);
  real("em.mean_memory_occupancy", m.em.mean_memory_occupancy);
  real("em.mean_swap_depth", m.em.mean_swap_depth);
  count("traffic.enabled", m.traffic.enabled ? 1 : 0);
  real("traffic.mean_peak_utilisation", m.traffic.mean_peak_utilisation);
  count("traffic.peak_queue_depth", m.traffic.peak_queue_depth);
  return out;
}

void expect_bitwise_equal(const core::ArchitectureMetrics& reference,
                          const core::ArchitectureMetrics& instrumented,
                          const std::string& what) {
  EXPECT_EQ(instrumented.architecture, reference.architecture) << what;
  const auto want = fields(reference);
  const auto got = fields(instrumented);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].second, want[i].second)
        << what << ": " << want[i].first << " differs from the run without "
        << "observability";
  }
}

TEST(ObsModes, InstrumentationNeverChangesTheResult) {
  const std::pair<const char*, core::ServingMode> modes[] = {
      {"single_shot", core::ServingMode::SingleShot},
      {"entanglement", core::ServingMode::Entanglement},
      {"traffic", core::ServingMode::Traffic},
  };
  for (const auto& [name, mode] : modes) {
    SCOPED_TRACE(name);
    const core::QntnConfig config = day_config(mode);

    core::RunContext plain;
    plain.config = config;
    const core::ArchitectureMetrics reference =
        core::evaluate_space_ground(plain, kSatellites);
    // Guard: a day that serves nothing, or leaves nothing unserved, would
    // hide a bucket that moved.
    ASSERT_GT(reference.requests_served, 0u);
    ASSERT_LT(reference.requests_served, reference.requests_issued);

    {
      obs::Registry registry;
      core::RunContext ctx;
      ctx.config = config;
      ctx.registry = &registry;
      expect_bitwise_equal(reference,
                           core::evaluate_space_ground(ctx, kSatellites),
                           "registry");
      EXPECT_FALSE(registry.snapshot().counters.empty());
    }
    {
      obs::Registry registry;
      std::ostringstream out;
      obs::TraceSink sink(out, obs::TraceLevel::Requests);
      core::RunContext ctx;
      ctx.config = config;
      ctx.registry = &registry;
      ctx.trace = &sink;
      expect_bitwise_equal(reference,
                           core::evaluate_space_ground(ctx, kSatellites),
                           "registry + Requests trace");
      EXPECT_NE(out.str().find("{\"type\": \"request\""),
                std::string::npos);
    }
    {
      obs::Profiler profiler;
      core::RunContext ctx;
      ctx.config = config;
      ctx.profiler = &profiler;
      expect_bitwise_equal(reference,
                           core::evaluate_space_ground(ctx, kSatellites),
                           "profiler");
      EXPECT_GT(profiler.span_count(), 0u);
    }
  }
}

}  // namespace
}  // namespace qntn
