#include "core/scenario_factory.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/ground_networks.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "orbit/constellation.hpp"
#include "plan/contact_topology.hpp"

namespace qntn::core {

sim::NetworkModel build_ground_model(const QntnConfig& config) {
  sim::NetworkModel model;
  for (const LanDefinition& lan : qntn_lans()) {
    model.add_lan(lan.name, lan.nodes, config.ground_terminal());
  }
  return model;
}

namespace {

void add_constellation(sim::NetworkModel& model, const QntnConfig& config,
                       std::size_t n_satellites, ThreadPool* pool) {
  const obs::ScopedTimer timer("time.ephemeris_s");
  const obs::Span span("core.add_constellation", n_satellites);
  const auto elements = orbit::qntn_constellation(n_satellites);
  orbit::PropagatorOptions options;
  options.include_j2 = config.include_j2;
  // Ephemerides are generated into per-index slots — in parallel when a
  // pool is given (workers inherit the caller's thread-safe ambient
  // registry/profiler) — and the satellites then enter the model serially
  // in index order, so node ids and everything derived from them are
  // independent of the thread count.
  std::vector<std::optional<orbit::Ephemeris>> ephemerides(elements.size());
  const auto generate = [&](std::size_t i) {
    const orbit::TwoBodyPropagator propagator(elements[i], options);
    ephemerides[i] = orbit::Ephemeris::generate(
        propagator, config.day_duration, config.ephemeris_step);
  };
  if (pool != nullptr && pool->size() > 1 && elements.size() > 1) {
    obs::Registry* const registry = obs::ambient();
    obs::Profiler* const profiler = obs::ambient_profiler();
    parallel_for_index(*pool, elements.size(), [&](std::size_t i) {
      const obs::ScopedRegistry worker_registry(registry);
      const obs::ScopedProfiler worker_profiler(profiler);
      generate(i);
    });
  } else {
    for (std::size_t i = 0; i < elements.size(); ++i) generate(i);
  }
  for (std::size_t i = 0; i < elements.size(); ++i) {
    model.add_satellite("sat" + std::to_string(i), std::move(*ephemerides[i]),
                        config.satellite_terminal());
  }
}

}  // namespace

sim::NetworkModel build_space_ground_model(const QntnConfig& config,
                                           std::size_t n_satellites,
                                           ThreadPool* pool) {
  sim::NetworkModel model = build_ground_model(config);
  add_constellation(model, config, n_satellites, pool);
  return model;
}

sim::NetworkModel build_air_ground_model(const QntnConfig& config) {
  sim::NetworkModel model = build_ground_model(config);
  model.add_hap("HAP", config.hap_position, config.hap_terminal());
  return model;
}

sim::NetworkModel build_hybrid_model(const QntnConfig& config,
                                     std::size_t n_satellites,
                                     ThreadPool* pool) {
  sim::NetworkModel model = build_ground_model(config);
  model.add_hap("HAP", config.hap_position, config.hap_terminal());
  add_constellation(model, config, n_satellites, pool);
  return model;
}

Topology make_topology(const QntnConfig& config,
                       const sim::NetworkModel& model, ThreadPool* pool) {
  Topology topology;
  switch (config.topology_mode) {
    case TopologyMode::Rebuild:
      topology.owner = std::make_unique<sim::TopologyBuilder>(
          model, config.link_policy());
      break;
    case TopologyMode::ContactPlan: {
      const obs::ScopedTimer timer("time.contact_compile_s");
      const obs::Span span("core.make_topology");
      topology.plan =
          std::make_unique<plan::ContactPlan>(plan::compile_contact_plan(
              model, config.link_policy(), config.plan_options(), pool));
      topology.owner =
          std::make_unique<plan::ContactPlanTopology>(*topology.plan, model);
      break;
    }
  }
  return topology;
}

}  // namespace qntn::core
