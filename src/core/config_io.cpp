#include "core/config_io.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/ephemeris.hpp"
#include "quantum/memory.hpp"

namespace qntn::core {

namespace {

template <class T>
struct NameRow {
  T value;
  std::string_view name;
};

/// The config names of an enum's values; `noun` names the enum in errors.
template <class T, std::size_t N>
struct Names {
  std::string_view noun;
  std::array<NameRow<T>, N> rows;
};

/// Deduces the row count from the rows given.
template <class T, std::size_t N>
constexpr Names<T, N> names(std::string_view noun, NameRow<T> (&&rows)[N]) {
  return {noun, std::to_array(rows)};
}

constexpr auto kMetrics =
    names<net::CostMetric>("metric",
                           {{net::CostMetric::InverseEta, "inverse_eta"},
                            {net::CostMetric::NegLogEta, "neg_log_eta"},
                            {net::CostMetric::HopCount, "hop_count"}});
constexpr auto kConventions = names<quantum::FidelityConvention>(
    "fidelity convention", {{quantum::FidelityConvention::Uhlmann, "uhlmann"},
                            {quantum::FidelityConvention::Jozsa, "jozsa"}});
constexpr auto kLanTopologies =
    names<sim::LanTopology>("LAN topology",
                            {{sim::LanTopology::FullMesh, "mesh"},
                             {sim::LanTopology::Chain, "chain"},
                             {sim::LanTopology::Star, "star"}});
constexpr auto kWeathers = names<channel::WeatherProfile>(
    "weather profile", {{channel::clear_sky(), "clear"},
                        {channel::haze(), "haze"},
                        {channel::strong_turbulence(), "strong_turbulence"},
                        {channel::light_rain(), "light_rain"}});
constexpr auto kTopologyModes =
    names<TopologyMode>("topology mode",
                        {{TopologyMode::Rebuild, "rebuild"},
                         {TopologyMode::ContactPlan, "contact_plan"}});
constexpr auto kServingModes =
    names<ServingMode>("serving mode",
                       {{ServingMode::SingleShot, "single_shot"},
                        {ServingMode::Entanglement, "entanglement"},
                        {ServingMode::Traffic, "traffic"}});

/// A numeric key's single-field domain, checked on the value as written
/// (degrees for angle keys) while its line is parsed.
struct Domain {
  bool (*holds)(double value);
  std::string_view rule;
};

constexpr Domain kPositive{
    [](double v) { return std::isfinite(v) && v > 0.0; },
    "must be finite and > 0"};
constexpr Domain kPositiveOrInf{[](double v) { return v > 0.0; },
                                "must be > 0"};
constexpr Domain kNonNegative{
    [](double v) { return std::isfinite(v) && v >= 0.0; },
    "must be finite and >= 0"};
constexpr Domain kLatitude{[](double v) { return std::abs(v) <= 90.0; },
                           "must be finite and in [-90, 90]"};
constexpr Domain kLongitude{[](double v) { return std::abs(v) <= 180.0; },
                            "must be finite and in [-180, 180]"};

double parse_number(const std::string& text, const Domain* domain) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw Error("bad numeric value: " + text);
  if (domain != nullptr && !domain->holds(value)) {
    throw Error(std::string(domain->rule));
  }
  return value;
}

// Codecs: a key's text <-> its field's value. `read` throws on malformed
// or out-of-domain text.

struct Real {
  static constexpr ConfigValue kValue = ConfigValue::Real;
  static double read(const std::string& text, const Domain* domain) {
    return parse_number(text, domain);
  }
  static void write(std::ostream& os, double value) { os << value; }
};

/// Written in degrees, held in radians.
struct Degrees {
  static constexpr ConfigValue kValue = ConfigValue::Degrees;
  static double read(const std::string& text, const Domain* domain) {
    return deg_to_rad(parse_number(text, domain));
  }
  static void write(std::ostream& os, double value) { os << rad_to_deg(value); }
};

struct Count {
  static constexpr ConfigValue kValue = ConfigValue::Count;
  static std::size_t read(const std::string& text, const Domain* domain) {
    const double value = parse_number(text, domain);
    // Range-check before the cast: converting nan, inf or anything at or
    // past 2^64 to std::size_t is undefined behaviour.
    constexpr auto kLimit =
        static_cast<double>(std::numeric_limits<std::size_t>::max());
    if (!(value >= 0.0 && value < kLimit) || value != std::floor(value)) {
      throw Error("bad integer value: " + text);
    }
    return static_cast<std::size_t>(value);
  }
  static void write(std::ostream& os, std::size_t value) { os << value; }
};

struct Flag {
  static constexpr ConfigValue kValue = ConfigValue::Flag;
  static bool read(const std::string& text, const Domain* /*domain*/) {
    if (text == "true") return true;
    if (text == "false") return false;
    throw Error("bad boolean value: " + text);
  }
  static void write(std::ostream& os, bool value) {
    os << (value ? "true" : "false");
  }
};

template <const auto& kNames>
struct Named {
  static constexpr ConfigValue kValue = ConfigValue::Name;
  static auto read(const std::string& text, const Domain* /*domain*/) {
    for (const auto& row : kNames.rows) {
      if (row.name == text) return row.value;
    }
    throw Error("unknown " + std::string(kNames.noun) + ": " + text);
  }
  static void write(std::ostream& os, const auto& value) {
    for (const auto& row : kNames.rows) {
      if (row.value == value) {
        os << row.name;
        return;
      }
    }
    throw Error("unknown " + std::string(kNames.noun));
  }
  static std::vector<std::string_view> names() {
    std::vector<std::string_view> out;
    for (const auto& row : kNames.rows) out.push_back(row.name);
    return out;
  }
};

/// A codec bound to one QntnConfig field; built by field<Codec, Path...>,
/// where `Path` is the chain of member pointers that reaches the field.
struct Field {
  ConfigValue value;
  void (*write)(std::ostream& os, const QntnConfig& config);
  void (*read)(QntnConfig& config, const std::string& text,
               const Domain* domain);
  std::vector<std::string_view> (*names)() = nullptr;
};

template <class Codec, auto... Path>
constexpr Field field() {
  Field out{Codec::kValue,
            [](std::ostream& os, const QntnConfig& config) {
              Codec::write(os, (config .* ... .* Path));
            },
            [](QntnConfig& config, const std::string& text,
               const Domain* domain) {
              (config .* ... .* Path) = Codec::read(text, domain);
            }};
  if constexpr (Codec::kValue == ConfigValue::Name) out.names = Codec::names;
  return out;
}

struct Key {
  std::string_view name;
  Field field;
  const Domain* domain = nullptr;
};

using C = QntnConfig;
using G = geo::Geodetic;

/// Every config key, in serialization order.
constexpr Key kKeys[] = {
    {"transmissivity_threshold", field<Real, &C::transmissivity_threshold>()},
    {"elevation_mask_deg", field<Degrees, &C::elevation_mask>()},
    {"fiber_attenuation_db_per_km",
     field<Real, &C::fiber_attenuation_db_per_km>()},
    {"ground_aperture_radius", field<Real, &C::ground_aperture_radius>()},
    {"satellite_aperture_radius",
     field<Real, &C::satellite_aperture_radius>()},
    {"hap_aperture_radius", field<Real, &C::hap_aperture_radius>()},
    {"hap_latitude_deg", field<Degrees, &C::hap_position, &G::latitude>(),
     &kLatitude},
    {"hap_longitude_deg", field<Degrees, &C::hap_position, &G::longitude>(),
     &kLongitude},
    {"hap_altitude_m", field<Real, &C::hap_position, &G::altitude>(),
     &kPositive},
    {"ephemeris_step_s", field<Real, &C::ephemeris_step>(), &kPositive},
    {"day_duration_s", field<Real, &C::day_duration>(), &kPositive},
    {"wavelength_m", field<Real, &C::wavelength>()},
    {"receiver_efficiency", field<Real, &C::receiver_efficiency>()},
    {"ao_gain", field<Real, &C::ao_gain>()},
    {"zenith_transmittance", field<Real, &C::zenith_transmittance>()},
    {"pointing_jitter_rad", field<Real, &C::pointing_jitter>()},
    {"request_count", field<Count, &C::request_count>()},
    {"request_steps", field<Count, &C::request_steps>()},
    {"request_seed", field<Count, &C::request_seed>()},
    {"include_j2", field<Flag, &C::include_j2>()},
    {"enable_inter_satellite", field<Flag, &C::enable_inter_satellite>()},
    {"enable_hap_satellite", field<Flag, &C::enable_hap_satellite>()},
    {"metric", field<Named<kMetrics>, &C::metric>()},
    {"fidelity_convention", field<Named<kConventions>, &C::convention>()},
    {"lan_topology", field<Named<kLanTopologies>, &C::lan_topology>()},
    {"weather", field<Named<kWeathers>, &C::weather>()},
    {"topology_mode", field<Named<kTopologyModes>, &C::topology_mode>()},
    {"parallel_snapshots", field<Flag, &C::parallel_snapshots>()},
    {"serving_mode", field<Named<kServingModes>, &C::serving_mode>()},
    {"em_memory_slots", field<Count, &C::em_memory_slots>()},
    {"em_generation_period_s", field<Real, &C::em_generation_period>()},
    {"em_max_storage_s", field<Real, &C::em_max_storage>()},
    {"em_memory_t1_s", field<Real, &C::em_memory_t1>()},
    {"em_memory_t2_s", field<Real, &C::em_memory_t2>()},
    {"em_heralding_latency_s", field<Real, &C::em_heralding_latency>(),
     &kNonNegative},
    {"em_k_paths", field<Count, &C::em_k_paths>()},
    {"em_node_capacity", field<Count, &C::em_node_capacity>()},
    {"em_fidelity_slo", field<Real, &C::em_fidelity_slo>()},
    {"em_purify_max_rounds", field<Count, &C::em_purify_max_rounds>()},
    {"traffic_arrival_rate", field<Real, &C::traffic_arrival_rate>(),
     &kNonNegative},
    {"traffic_diurnal_amplitude",
     field<Real, &C::traffic_diurnal_amplitude>()},
    {"traffic_service_overhead_s",
     field<Real, &C::traffic_service_overhead>(), &kNonNegative},
    {"traffic_max_queue_delay_s", field<Real, &C::traffic_max_queue_delay>(),
     &kPositiveOrInf},
    {"traffic_node_capacity", field<Count, &C::traffic_node_capacity>()},
    {"traffic_max_backlog", field<Count, &C::traffic_max_backlog>()},
    {"traffic_seed", field<Count, &C::traffic_seed>()},
};

std::string strip(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

std::vector<ConfigKeyInfo> config_keys() {
  std::vector<ConfigKeyInfo> out;
  for (const Key& key : kKeys) {
    out.push_back({key.name, key.field.value,
                   key.field.names ? key.field.names()
                                   : std::vector<std::string_view>{},
                   key.domain ? key.domain->holds : nullptr});
  }
  return out;
}

std::string serialize_config(const QntnConfig& config) {
  std::ostringstream os;
  os.precision(12);
  os << "# QNTN experiment configuration\n";
  for (const Key& key : kKeys) {
    os << key.name << " = ";
    key.field.write(os, config);
    os << '\n';
  }
  return os.str();
}

QntnConfig parse_config(const std::string& text) {
  QntnConfig config;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    line = strip(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const std::string where = "config line " + std::to_string(line_number);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) throw Error(where + ": expected key = value");
    const std::string name = strip(line.substr(0, eq));
    const Key* key = std::find_if(std::begin(kKeys), std::end(kKeys),
                                  [&](const Key& k) { return k.name == name; });
    if (key == std::end(kKeys)) {
      throw Error(where + ": unknown key '" + name + "'");
    }
    try {
      key->field.read(config, strip(line.substr(eq + 1)), key->domain);
    } catch (const std::exception& e) {
      throw Error(where + " (" + name + "): " + e.what());
    }
  }
  // Cross-field checks run after the whole file is read (the keys may come
  // in any order), so they too fail at parse time with a clear message, not
  // deep inside a scenario run: the horizon and the step size every grid
  // and ephemeris table, the memory pair must be physical, and the traffic
  // options must validate.
  try {
    (void)orbit::grid_sample_count(config.day_duration, config.ephemeris_step);
  } catch (const std::exception& e) {
    throw Error(std::string("config (day_duration_s/ephemeris_step_s): ") +
                e.what());
  }
  try {
    quantum::MemoryModel{config.em_memory_t1, config.em_memory_t2}.validate();
  } catch (const std::exception& e) {
    throw Error(std::string("config (em_memory_t1_s/em_memory_t2_s): ") +
                e.what());
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
