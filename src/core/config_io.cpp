#include "core/config_io.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/ephemeris.hpp"
#include "quantum/memory.hpp"

namespace qntn::core {

namespace {

std::string metric_name(net::CostMetric metric) {
  switch (metric) {
    case net::CostMetric::InverseEta:
      return "inverse_eta";
    case net::CostMetric::NegLogEta:
      return "neg_log_eta";
    case net::CostMetric::HopCount:
      return "hop_count";
  }
  throw Error("unknown metric");
}

net::CostMetric metric_from(const std::string& name) {
  if (name == "inverse_eta") return net::CostMetric::InverseEta;
  if (name == "neg_log_eta") return net::CostMetric::NegLogEta;
  if (name == "hop_count") return net::CostMetric::HopCount;
  throw Error("unknown metric: " + name);
}

std::string convention_name(quantum::FidelityConvention convention) {
  return convention == quantum::FidelityConvention::Uhlmann ? "uhlmann"
                                                            : "jozsa";
}

quantum::FidelityConvention convention_from(const std::string& name) {
  if (name == "uhlmann") return quantum::FidelityConvention::Uhlmann;
  if (name == "jozsa") return quantum::FidelityConvention::Jozsa;
  throw Error("unknown fidelity convention: " + name);
}

std::string topology_name(sim::LanTopology topology) {
  switch (topology) {
    case sim::LanTopology::FullMesh:
      return "mesh";
    case sim::LanTopology::Chain:
      return "chain";
    case sim::LanTopology::Star:
      return "star";
  }
  throw Error("unknown LAN topology");
}

sim::LanTopology topology_from(const std::string& name) {
  if (name == "mesh") return sim::LanTopology::FullMesh;
  if (name == "chain") return sim::LanTopology::Chain;
  if (name == "star") return sim::LanTopology::Star;
  throw Error("unknown LAN topology: " + name);
}

std::string weather_name(const channel::WeatherProfile& weather) {
  return std::string(weather.name);
}

channel::WeatherProfile weather_from(const std::string& name) {
  if (name == "clear") return channel::clear_sky();
  if (name == "haze") return channel::haze();
  if (name == "strong_turbulence") return channel::strong_turbulence();
  if (name == "light_rain") return channel::light_rain();
  throw Error("unknown weather profile: " + name);
}

std::string topology_mode_name(TopologyMode mode) {
  return mode == TopologyMode::ContactPlan ? "contact_plan" : "rebuild";
}

TopologyMode topology_mode_from(const std::string& name) {
  if (name == "rebuild") return TopologyMode::Rebuild;
  if (name == "contact_plan") return TopologyMode::ContactPlan;
  throw Error("unknown topology mode: " + name);
}

std::string serving_mode_name(ServingMode mode) {
  switch (mode) {
    case ServingMode::SingleShot:
      return "single_shot";
    case ServingMode::Entanglement:
      return "entanglement";
    case ServingMode::Traffic:
      return "traffic";
  }
  throw Error("unknown serving mode");
}

ServingMode serving_mode_from(const std::string& name) {
  if (name == "single_shot") return ServingMode::SingleShot;
  if (name == "entanglement") return ServingMode::Entanglement;
  if (name == "traffic") return ServingMode::Traffic;
  throw Error("unknown serving mode: " + name);
}

}  // namespace

std::string serialize_config(const QntnConfig& config) {
  std::ostringstream os;
  os.precision(12);
  os << "# QNTN experiment configuration\n"
     << "transmissivity_threshold = " << config.transmissivity_threshold << '\n'
     << "elevation_mask_deg = " << rad_to_deg(config.elevation_mask) << '\n'
     << "fiber_attenuation_db_per_km = " << config.fiber_attenuation_db_per_km
     << '\n'
     << "ground_aperture_radius = " << config.ground_aperture_radius << '\n'
     << "satellite_aperture_radius = " << config.satellite_aperture_radius
     << '\n'
     << "hap_aperture_radius = " << config.hap_aperture_radius << '\n'
     << "hap_latitude_deg = " << rad_to_deg(config.hap_position.latitude) << '\n'
     << "hap_longitude_deg = " << rad_to_deg(config.hap_position.longitude)
     << '\n'
     << "hap_altitude_m = " << config.hap_position.altitude << '\n'
     << "satellite_altitude_m = " << config.satellite_altitude << '\n'
     << "ephemeris_step_s = " << config.ephemeris_step << '\n'
     << "day_duration_s = " << config.day_duration << '\n'
     << "wavelength_m = " << config.wavelength << '\n'
     << "receiver_efficiency = " << config.receiver_efficiency << '\n'
     << "ao_gain = " << config.ao_gain << '\n'
     << "zenith_transmittance = " << config.zenith_transmittance << '\n'
     << "pointing_jitter_rad = " << config.pointing_jitter << '\n'
     << "request_count = " << config.request_count << '\n'
     << "request_steps = " << config.request_steps << '\n'
     << "request_seed = " << config.request_seed << '\n'
     << "include_j2 = " << (config.include_j2 ? "true" : "false") << '\n'
     << "enable_inter_satellite = "
     << (config.enable_inter_satellite ? "true" : "false") << '\n'
     << "enable_hap_satellite = "
     << (config.enable_hap_satellite ? "true" : "false") << '\n'
     << "metric = " << metric_name(config.metric) << '\n'
     << "fidelity_convention = " << convention_name(config.convention) << '\n'
     << "lan_topology = " << topology_name(config.lan_topology) << '\n'
     << "weather = " << weather_name(config.weather) << '\n'
     << "topology_mode = " << topology_mode_name(config.topology_mode) << '\n'
     << "parallel_snapshots = "
     << (config.parallel_snapshots ? "true" : "false") << '\n'
     << "serving_mode = " << serving_mode_name(config.serving_mode) << '\n'
     << "em_memory_slots = " << config.em_memory_slots << '\n'
     << "em_generation_period_s = " << config.em_generation_period << '\n'
     << "em_max_storage_s = " << config.em_max_storage << '\n'
     << "em_memory_t1_s = " << config.em_memory_t1 << '\n'
     << "em_memory_t2_s = " << config.em_memory_t2 << '\n'
     << "em_heralding_latency_s = " << config.em_heralding_latency << '\n'
     << "em_k_paths = " << config.em_k_paths << '\n'
     << "em_node_capacity = " << config.em_node_capacity << '\n'
     << "em_fidelity_slo = " << config.em_fidelity_slo << '\n'
     << "em_purify_max_rounds = " << config.em_purify_max_rounds << '\n'
     << "traffic_arrival_rate = " << config.traffic_arrival_rate << '\n'
     << "traffic_diurnal_amplitude = " << config.traffic_diurnal_amplitude
     << '\n'
     << "traffic_service_overhead_s = " << config.traffic_service_overhead
     << '\n'
     << "traffic_max_queue_delay_s = " << config.traffic_max_queue_delay
     << '\n'
     << "traffic_node_capacity = " << config.traffic_node_capacity << '\n'
     << "traffic_max_backlog = " << config.traffic_max_backlog << '\n'
     << "traffic_seed = " << config.traffic_seed << '\n';
  return os.str();
}

QntnConfig parse_config(const std::string& text) {
  QntnConfig config;

  const auto as_double = [](const std::string& v) {
    std::size_t used = 0;
    const double out = std::stod(v, &used);
    if (used != v.size()) throw Error("bad numeric value: " + v);
    return out;
  };
  const auto as_size = [&as_double](const std::string& v) {
    const double d = as_double(v);
    // Range-check before the cast: converting nan, inf or anything at or
    // past 2^64 to std::size_t is undefined behaviour.
    constexpr auto kLimit =
        static_cast<double>(std::numeric_limits<std::size_t>::max());
    if (!(d >= 0.0 && d < kLimit) || d != std::floor(d)) {
      throw Error("bad integer value: " + v);
    }
    return static_cast<std::size_t>(d);
  };
  const auto as_bool = [](const std::string& v) {
    if (v == "true") return true;
    if (v == "false") return false;
    throw Error("bad boolean value: " + v);
  };

  const std::map<std::string, std::function<void(const std::string&)>>
      setters = {
          {"transmissivity_threshold",
           [&](const std::string& v) { config.transmissivity_threshold = as_double(v); }},
          {"elevation_mask_deg",
           [&](const std::string& v) { config.elevation_mask = deg_to_rad(as_double(v)); }},
          {"fiber_attenuation_db_per_km",
           [&](const std::string& v) { config.fiber_attenuation_db_per_km = as_double(v); }},
          {"ground_aperture_radius",
           [&](const std::string& v) { config.ground_aperture_radius = as_double(v); }},
          {"satellite_aperture_radius",
           [&](const std::string& v) { config.satellite_aperture_radius = as_double(v); }},
          {"hap_aperture_radius",
           [&](const std::string& v) { config.hap_aperture_radius = as_double(v); }},
          {"hap_latitude_deg",
           [&](const std::string& v) { config.hap_position.latitude = deg_to_rad(as_double(v)); }},
          {"hap_longitude_deg",
           [&](const std::string& v) { config.hap_position.longitude = deg_to_rad(as_double(v)); }},
          {"hap_altitude_m",
           [&](const std::string& v) { config.hap_position.altitude = as_double(v); }},
          {"satellite_altitude_m",
           [&](const std::string& v) { config.satellite_altitude = as_double(v); }},
          {"ephemeris_step_s",
           [&](const std::string& v) { config.ephemeris_step = as_double(v); }},
          {"day_duration_s",
           [&](const std::string& v) { config.day_duration = as_double(v); }},
          {"wavelength_m",
           [&](const std::string& v) { config.wavelength = as_double(v); }},
          {"receiver_efficiency",
           [&](const std::string& v) { config.receiver_efficiency = as_double(v); }},
          {"ao_gain", [&](const std::string& v) { config.ao_gain = as_double(v); }},
          {"zenith_transmittance",
           [&](const std::string& v) { config.zenith_transmittance = as_double(v); }},
          {"pointing_jitter_rad",
           [&](const std::string& v) { config.pointing_jitter = as_double(v); }},
          {"request_count",
           [&](const std::string& v) { config.request_count = as_size(v); }},
          {"request_steps",
           [&](const std::string& v) { config.request_steps = as_size(v); }},
          {"request_seed",
           [&](const std::string& v) { config.request_seed = as_size(v); }},
          {"include_j2",
           [&](const std::string& v) { config.include_j2 = as_bool(v); }},
          {"enable_inter_satellite",
           [&](const std::string& v) { config.enable_inter_satellite = as_bool(v); }},
          {"enable_hap_satellite",
           [&](const std::string& v) { config.enable_hap_satellite = as_bool(v); }},
          {"metric",
           [&](const std::string& v) { config.metric = metric_from(v); }},
          {"fidelity_convention",
           [&](const std::string& v) { config.convention = convention_from(v); }},
          {"lan_topology",
           [&](const std::string& v) { config.lan_topology = topology_from(v); }},
          {"weather",
           [&](const std::string& v) { config.weather = weather_from(v); }},
          {"topology_mode",
           [&](const std::string& v) { config.topology_mode = topology_mode_from(v); }},
          {"parallel_snapshots",
           [&](const std::string& v) { config.parallel_snapshots = as_bool(v); }},
          {"serving_mode",
           [&](const std::string& v) { config.serving_mode = serving_mode_from(v); }},
          {"em_memory_slots",
           [&](const std::string& v) { config.em_memory_slots = as_size(v); }},
          {"em_generation_period_s",
           [&](const std::string& v) { config.em_generation_period = as_double(v); }},
          {"em_max_storage_s",
           [&](const std::string& v) { config.em_max_storage = as_double(v); }},
          {"em_memory_t1_s",
           [&](const std::string& v) { config.em_memory_t1 = as_double(v); }},
          {"em_memory_t2_s",
           [&](const std::string& v) { config.em_memory_t2 = as_double(v); }},
          {"em_heralding_latency_s",
           [&](const std::string& v) { config.em_heralding_latency = as_double(v); }},
          {"em_k_paths",
           [&](const std::string& v) { config.em_k_paths = as_size(v); }},
          {"em_node_capacity",
           [&](const std::string& v) { config.em_node_capacity = as_size(v); }},
          {"em_fidelity_slo",
           [&](const std::string& v) { config.em_fidelity_slo = as_double(v); }},
          {"em_purify_max_rounds",
           [&](const std::string& v) { config.em_purify_max_rounds = as_size(v); }},
          {"traffic_arrival_rate",
           [&](const std::string& v) { config.traffic_arrival_rate = as_double(v); }},
          {"traffic_diurnal_amplitude",
           [&](const std::string& v) { config.traffic_diurnal_amplitude = as_double(v); }},
          {"traffic_service_overhead_s",
           [&](const std::string& v) { config.traffic_service_overhead = as_double(v); }},
          {"traffic_max_queue_delay_s",
           [&](const std::string& v) { config.traffic_max_queue_delay = as_double(v); }},
          {"traffic_node_capacity",
           [&](const std::string& v) { config.traffic_node_capacity = as_size(v); }},
          {"traffic_max_backlog",
           [&](const std::string& v) { config.traffic_max_backlog = as_size(v); }},
          {"traffic_seed",
           [&](const std::string& v) { config.traffic_seed = as_size(v); }},
      };

  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    // Trim.
    const auto strip = [](std::string s) {
      const auto begin = s.find_first_not_of(" \t\r");
      if (begin == std::string::npos) return std::string{};
      const auto end = s.find_last_not_of(" \t\r");
      return s.substr(begin, end - begin + 1);
    };
    line = strip(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw Error("config line " + std::to_string(line_number) +
                  ": expected key = value");
    }
    const std::string key = strip(line.substr(0, eq));
    const std::string value = strip(line.substr(eq + 1));
    const auto it = setters.find(key);
    if (it == setters.end()) {
      throw Error("config line " + std::to_string(line_number) +
                  ": unknown key '" + key + "'");
    }
    try {
      it->second(value);
    } catch (const std::exception& e) {
      throw Error("config line " + std::to_string(line_number) + " (" + key +
                  "): " + e.what());
    }
  }
  // The horizon and the sampling step size every grid and ephemeris table.
  if (!(std::isfinite(config.day_duration) && config.day_duration > 0.0)) {
    throw Error("config (day_duration_s): must be finite and > 0");
  }
  if (!(std::isfinite(config.ephemeris_step) && config.ephemeris_step > 0.0)) {
    throw Error("config (ephemeris_step_s): must be finite and > 0");
  }
  try {
    (void)orbit::grid_sample_count(config.day_duration, config.ephemeris_step);
  } catch (const std::exception& e) {
    throw Error(std::string("config (day_duration_s/ephemeris_step_s): ") +
                e.what());
  }
  // Cross-field checks run after the whole file is read (the keys may come
  // in any order). The memory-physicality check in particular must fail at
  // parse time with a clear message, not deep inside a scenario run.
  try {
    quantum::MemoryModel{config.em_memory_t1, config.em_memory_t2}.validate();
  } catch (const std::exception& e) {
    throw Error(std::string("config (em_memory_t1_s/em_memory_t2_s): ") +
                e.what());
  }
  if (config.traffic_max_queue_delay <= 0.0) {
    throw Error("config (traffic_max_queue_delay_s): must be > 0");
  }
  if (!(std::isfinite(config.traffic_arrival_rate) &&
        config.traffic_arrival_rate >= 0.0)) {
    throw Error("config (traffic_arrival_rate): must be finite and >= 0");
  }
  if (!(std::isfinite(config.traffic_service_overhead) &&
        config.traffic_service_overhead >= 0.0)) {
    throw Error("config (traffic_service_overhead_s): must be finite and >= 0");
  }
  try {
    (void)config.traffic_options();
  } catch (const std::exception& e) {
    throw Error(std::string("config (traffic_*): ") + e.what());
  }
  return config;
}

void save_config(const std::string& path, const QntnConfig& config) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open config for writing: " + path);
  out << serialize_config(config);
  if (!out) throw Error("write failed: " + path);
}

QntnConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open config: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_config(buffer.str());
}

}  // namespace qntn::core
