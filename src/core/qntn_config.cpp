#include "core/qntn_config.hpp"

namespace qntn::core {

sim::LinkPolicy QntnConfig::link_policy() const {
  sim::LinkPolicy policy;
  policy.fso.wavelength = wavelength;
  policy.fso.receiver_efficiency = receiver_efficiency;
  policy.fso.ao_gain = ao_gain;
  policy.fso.extinction.zenith_transmittance = zenith_transmittance;
  policy.fso.weather = weather;
  policy.fiber_attenuation_db_per_km = fiber_attenuation_db_per_km;
  policy.transmissivity_threshold = transmissivity_threshold;
  policy.elevation_mask = elevation_mask;
  policy.lan_topology = lan_topology;
  policy.enable_inter_satellite = enable_inter_satellite;
  policy.enable_hap_satellite = enable_hap_satellite;
  return policy;
}

sim::ScenarioConfig QntnConfig::scenario_config() const {
  sim::ScenarioConfig config;
  config.coverage.duration = day_duration;
  config.coverage.step = ephemeris_step;
  config.request_count = request_count;
  config.request_steps = request_steps;
  config.request_step_interval =
      day_duration / static_cast<double>(request_steps);
  config.metric = metric;
  config.convention = convention;
  config.request_seed = request_seed;
  config.serving_mode = serving_mode;
  config.em = em_options();
  config.traffic = traffic_options();
  return config;
}

sim::EmOptions QntnConfig::em_options() const {
  sim::EmOptions options;
  options.pool.slots_per_node = em_memory_slots;
  options.pool.generation_period = em_generation_period;
  options.pool.max_storage = em_max_storage;
  options.pool.memory = quantum::MemoryModel{em_memory_t1, em_memory_t2};
  options.swap.heralding_latency = em_heralding_latency;
  options.purify.fidelity_slo = em_fidelity_slo;
  options.purify.max_rounds = em_purify_max_rounds;
  options.k_paths = em_k_paths;
  options.node_capacity = em_node_capacity;
  options.validate();
  return options;
}

sim::TrafficConfig QntnConfig::traffic_options() const {
  sim::TrafficConfig options;
  options.arrival_rate = traffic_arrival_rate;
  options.diurnal_amplitude = traffic_diurnal_amplitude;
  options.node_capacity = traffic_node_capacity;
  options.service_overhead = traffic_service_overhead;
  options.max_queue_delay = traffic_max_queue_delay;
  options.max_backlog = traffic_max_backlog;
  options.memory = quantum::MemoryModel{em_memory_t1, em_memory_t2};
  options.metric = metric;
  options.seed = traffic_seed;
  options.validate();
  return options;
}

plan::ContactPlanOptions QntnConfig::plan_options() const {
  plan::ContactPlanOptions options;
  options.horizon = day_duration;
  options.step = ephemeris_step;
  return options;
}

channel::OpticalTerminal QntnConfig::ground_terminal() const {
  return {ground_aperture_radius, pointing_jitter};
}

channel::OpticalTerminal QntnConfig::satellite_terminal() const {
  return {satellite_aperture_radius, pointing_jitter};
}

channel::OpticalTerminal QntnConfig::hap_terminal() const {
  return {hap_aperture_radius, pointing_jitter};
}

}  // namespace qntn::core
