#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace qntn::core {
namespace {

TEST(ConfigIo, DefaultsRoundTrip) {
  const QntnConfig original;
  const QntnConfig parsed = parse_config(serialize_config(original));
  EXPECT_DOUBLE_EQ(parsed.transmissivity_threshold,
                   original.transmissivity_threshold);
  EXPECT_NEAR(parsed.elevation_mask, original.elevation_mask, 1e-12);
  EXPECT_DOUBLE_EQ(parsed.ao_gain, original.ao_gain);
  EXPECT_DOUBLE_EQ(parsed.wavelength, original.wavelength);
  EXPECT_EQ(parsed.request_seed, original.request_seed);
  EXPECT_EQ(parsed.metric, original.metric);
  EXPECT_EQ(parsed.convention, original.convention);
  EXPECT_EQ(parsed.lan_topology, original.lan_topology);
  EXPECT_EQ(std::string(parsed.weather.name), std::string(original.weather.name));
}

TEST(ConfigIo, ModifiedValuesRoundTrip) {
  QntnConfig config;
  config.transmissivity_threshold = 0.55;
  config.include_j2 = true;
  config.enable_hap_satellite = true;
  config.metric = net::CostMetric::NegLogEta;
  config.convention = quantum::FidelityConvention::Jozsa;
  config.lan_topology = sim::LanTopology::Chain;
  config.weather = channel::haze();
  config.request_seed = 424242;
  const QntnConfig parsed = parse_config(serialize_config(config));
  EXPECT_DOUBLE_EQ(parsed.transmissivity_threshold, 0.55);
  EXPECT_TRUE(parsed.include_j2);
  EXPECT_TRUE(parsed.enable_hap_satellite);
  EXPECT_EQ(parsed.metric, net::CostMetric::NegLogEta);
  EXPECT_EQ(parsed.convention, quantum::FidelityConvention::Jozsa);
  EXPECT_EQ(parsed.lan_topology, sim::LanTopology::Chain);
  EXPECT_EQ(std::string(parsed.weather.name), "haze");
  EXPECT_EQ(parsed.request_seed, 424242u);
}

TEST(ConfigIo, PartialDocumentKeepsDefaults) {
  const QntnConfig parsed = parse_config(
      "# only override two things\n"
      "transmissivity_threshold = 0.8\n"
      "request_count = 42\n");
  EXPECT_DOUBLE_EQ(parsed.transmissivity_threshold, 0.8);
  EXPECT_EQ(parsed.request_count, 42u);
  const QntnConfig defaults;
  EXPECT_DOUBLE_EQ(parsed.ao_gain, defaults.ao_gain);
  EXPECT_EQ(parsed.request_steps, defaults.request_steps);
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  EXPECT_NO_THROW((void)parse_config("\n# comment\n   \nao_gain = 3.0 # ok\n"));
  EXPECT_DOUBLE_EQ(parse_config("ao_gain = 3.0 # inline\n").ao_gain, 3.0);
}

TEST(ConfigIo, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_config("no_equals_sign\n"), Error);
  EXPECT_THROW((void)parse_config("unknown_key = 1\n"), Error);
  EXPECT_THROW((void)parse_config("ao_gain = banana\n"), Error);
  EXPECT_THROW((void)parse_config("include_j2 = maybe\n"), Error);
  EXPECT_THROW((void)parse_config("metric = fastest\n"), Error);
  EXPECT_THROW((void)parse_config("request_count = -3\n"), Error);
  EXPECT_THROW((void)parse_config("weather = tornado\n"), Error);
}

TEST(ConfigIo, FileRoundTrip) {
  QntnConfig config;
  config.ao_gain = 7.25;
  const std::string path = ::testing::TempDir() + "/qntn_config_test.cfg";
  save_config(path, config);
  const QntnConfig loaded = load_config(path);
  EXPECT_DOUBLE_EQ(loaded.ao_gain, 7.25);
  EXPECT_THROW((void)load_config("/nonexistent/qntn.cfg"), Error);
}

TEST(ConfigIo, EmKeysRoundTrip) {
  QntnConfig config;
  config.serving_mode = ServingMode::Entanglement;
  config.em_memory_slots = 16;
  config.em_generation_period = 0.02;
  config.em_max_storage = 0.5;
  config.em_memory_t1 = 4.0;
  config.em_memory_t2 = 2.5;
  config.em_heralding_latency = 0.003;
  config.em_k_paths = 5;
  config.em_node_capacity = 3;
  config.em_fidelity_slo = 0.9;
  config.em_purify_max_rounds = 3;
  const QntnConfig parsed = parse_config(serialize_config(config));
  EXPECT_EQ(parsed.serving_mode, ServingMode::Entanglement);
  EXPECT_EQ(parsed.em_memory_slots, 16u);
  EXPECT_DOUBLE_EQ(parsed.em_generation_period, 0.02);
  EXPECT_DOUBLE_EQ(parsed.em_max_storage, 0.5);
  EXPECT_DOUBLE_EQ(parsed.em_memory_t1, 4.0);
  EXPECT_DOUBLE_EQ(parsed.em_memory_t2, 2.5);
  EXPECT_DOUBLE_EQ(parsed.em_heralding_latency, 0.003);
  EXPECT_EQ(parsed.em_k_paths, 5u);
  EXPECT_EQ(parsed.em_node_capacity, 3u);
  EXPECT_DOUBLE_EQ(parsed.em_fidelity_slo, 0.9);
  EXPECT_EQ(parsed.em_purify_max_rounds, 3u);
  // The scenario config the parsed document builds really runs em serving.
  EXPECT_EQ(parsed.scenario_config().serving_mode,
            sim::ServingMode::Entanglement);
  EXPECT_EQ(parsed.scenario_config().em.k_paths, 5u);
  // Defaults keep the paper's single-shot serving.
  EXPECT_EQ(QntnConfig{}.serving_mode, ServingMode::SingleShot);
  EXPECT_EQ(QntnConfig{}.scenario_config().serving_mode,
            sim::ServingMode::SingleShot);
}

TEST(ConfigIo, RejectsUnphysicalEmMemoryPair) {
  // Cross-field validation at the parse boundary: T2 > 2 T1 must fail
  // loudly, naming the em keys, not deep inside a scenario run.
  try {
    (void)parse_config("em_memory_t1_s = 1.0\nem_memory_t2_s = 3.0\n");
    FAIL() << "unphysical (T1, T2) must throw at parse";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("em_memory"), std::string::npos)
        << e.what();
  }
  // The boundary T2 = 2 T1 parses fine.
  const QntnConfig limit =
      parse_config("em_memory_t1_s = 1.0\nem_memory_t2_s = 2.0\n");
  EXPECT_DOUBLE_EQ(limit.em_memory_t2, 2.0);
  EXPECT_THROW((void)parse_config("serving_mode = telepathy\n"), Error);
}

TEST(ConfigIo, TrafficKeysRoundTrip) {
  QntnConfig config;
  config.serving_mode = ServingMode::Traffic;
  config.traffic_arrival_rate = 2.5;
  config.traffic_diurnal_amplitude = 0.25;
  config.traffic_service_overhead = 0.02;
  config.traffic_max_queue_delay = 1.5;
  config.traffic_node_capacity = 3;
  config.traffic_max_backlog = 64;
  config.traffic_seed = 777;
  const QntnConfig parsed = parse_config(serialize_config(config));
  EXPECT_EQ(parsed.serving_mode, ServingMode::Traffic);
  EXPECT_DOUBLE_EQ(parsed.traffic_arrival_rate, 2.5);
  EXPECT_DOUBLE_EQ(parsed.traffic_diurnal_amplitude, 0.25);
  EXPECT_DOUBLE_EQ(parsed.traffic_service_overhead, 0.02);
  EXPECT_DOUBLE_EQ(parsed.traffic_max_queue_delay, 1.5);
  EXPECT_EQ(parsed.traffic_node_capacity, 3u);
  EXPECT_EQ(parsed.traffic_max_backlog, 64u);
  EXPECT_EQ(parsed.traffic_seed, 777u);
  // The scenario config the parsed document builds really runs traffic
  // serving.
  EXPECT_EQ(parsed.scenario_config().serving_mode, sim::ServingMode::Traffic);
  EXPECT_DOUBLE_EQ(parsed.scenario_config().traffic.arrival_rate, 2.5);
  // Defaults keep the paper's single-shot serving.
  EXPECT_EQ(QntnConfig{}.scenario_config().serving_mode,
            sim::ServingMode::SingleShot);
}

TEST(ConfigIo, RejectsDegenerateTrafficParameters) {
  // Cross-field validation at the parse boundary, naming the traffic keys.
  try {
    (void)parse_config("traffic_max_queue_delay_s = 0.0\n");
    FAIL() << "zero queue deadline must throw at parse";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("traffic_max_queue_delay"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)parse_config("traffic_arrival_rate = -1.0\n");
    FAIL() << "negative arrival rate must throw at parse";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("traffic_arrival_rate"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_config("traffic_diurnal_amplitude = 2.0\n"), Error);
  // Zero arrivals are a valid (quiet) workload.
  EXPECT_NO_THROW((void)parse_config("traffic_arrival_rate = 0.0\n"));
}

TEST(ConfigIo, RejectsNonFiniteTrafficRates) {
  // std::stod accepts "inf" and "nan"; the traffic rate, the service
  // overhead and the em heralding latency must still be finite, and the
  // error names the key. Parse only: an engine on an infinite rate would
  // draw arrivals forever, and a one-hop em route would store its pairs
  // for 0 x inf = NaN seconds.
  for (const std::string key : {"traffic_arrival_rate",
                                "traffic_service_overhead_s",
                                "em_heralding_latency_s"}) {
    for (const std::string value : {"inf", "-inf", "nan"}) {
      SCOPED_TRACE(key + " = " + value);
      try {
        (void)parse_config(key + " = " + value + "\n");
        FAIL() << "non-finite value must throw at parse";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
  // An infinite queue deadline stays legal: requests then never expire.
  const QntnConfig patient = parse_config("traffic_max_queue_delay_s = inf\n");
  EXPECT_TRUE(std::isinf(patient.traffic_max_queue_delay));
}

// Every parse failure below must name the key it rejects.
void expect_rejected(const std::string& line, const std::string& key) {
  SCOPED_TRACE(line);
  try {
    (void)parse_config(line + "\n");
    FAIL() << "must throw at parse";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(ConfigIo, RejectsOutOfRangeIntegersBeforeCasting) {
  // Range-checked before the double -> std::size_t cast, which is
  // undefined for nan, inf and values at or past 2^64 (UBSan's
  // float-cast-overflow check reports it).
  for (const std::string key : {"request_steps", "em_k_paths", "traffic_seed"}) {
    for (const std::string value :
         {"nan", "inf", "-inf", "1e30", "18446744073709551616", "-0.5", "1.5",
          "-3"}) {
      expect_rejected(key + " = " + value, key);
    }
  }
  EXPECT_EQ(parse_config("traffic_seed = 4294967296\n").traffic_seed,
            std::size_t{4294967296});
  EXPECT_EQ(parse_config("request_seed = 9007199254740992\n").request_seed,
            std::size_t{9007199254740992});
}

TEST(ConfigIo, RejectsNonFiniteHorizonAndStep) {
  // Parse only: an ephemeris or contact plan built on these would size
  // its tables from an infinite or overflowing sample count.
  for (const std::string value : {"inf", "-inf", "nan", "0", "-30"}) {
    expect_rejected("day_duration_s = " + value, "day_duration_s");
    expect_rejected("ephemeris_step_s = " + value, "ephemeris_step_s");
  }
  expect_rejected("ephemeris_step_s = 1e-300", "ephemeris_step_s");
  expect_rejected("day_duration_s = 1e300", "day_duration_s");
  EXPECT_EQ(parse_config("day_duration_s = 43217\n").day_duration, 43217.0);
}

TEST(ConfigIo, RemovedContactRateKeysAreUnknown) {
  // The contact-plan scans classify every grid point, so the hop bounds
  // that used to tune them are gone, and the plan stores no sampled etas,
  // so neither is their compression tolerance. The constellation altitude
  // is fixed by the paper's layout (orbit::kQntnAltitude), so its key,
  // which no model read, is gone too; configs that still set one fail.
  for (const std::string key :
       {"contact_max_elevation_rate", "contact_max_range_rate",
        "contact_sample_tolerance", "satellite_altitude_m"}) {
    try {
      (void)parse_config(key + " = 1\n");
      FAIL() << key << " must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(serialize_config(QntnConfig{}).find(key), std::string::npos);
  }
}

TEST(ConfigIo, HapPositionSerializedInDegrees) {
  const QntnConfig config;
  const std::string text = serialize_config(config);
  EXPECT_NE(text.find("hap_latitude_deg = 35.6692"), std::string::npos);
  EXPECT_NE(text.find("hap_longitude_deg = -85.0662"), std::string::npos);
}

TEST(ConfigIo, RejectsBadHapPosition) {
  // A HAP off the globe or at no altitude used to run to fidelity 0, or
  // fail deep in the channel with a misleading altitude-band error.
  for (const std::string value : {"nan", "inf", "-inf", "400", "-90.5"}) {
    expect_rejected("hap_latitude_deg = " + value, "hap_latitude_deg");
  }
  for (const std::string value : {"nan", "inf", "180.5", "-400"}) {
    expect_rejected("hap_longitude_deg = " + value, "hap_longitude_deg");
  }
  for (const std::string value : {"nan", "inf", "0", "-30000"}) {
    expect_rejected("hap_altitude_m = " + value, "hap_altitude_m");
  }
  // The poles, the antimeridian, every altitude of bench_ablation_hap and
  // the default position parse.
  for (const std::string value : {"90", "-90", "35.6692"}) {
    EXPECT_NO_THROW((void)parse_config("hap_latitude_deg = " + value + "\n"));
  }
  for (const std::string value : {"180", "-180", "-85.0662"}) {
    EXPECT_NO_THROW((void)parse_config("hap_longitude_deg = " + value + "\n"));
  }
  for (const double km : {15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0}) {
    EXPECT_EQ(parse_config("hap_altitude_m = " + std::to_string(km * 1000.0) +
                           "\n")
                  .hap_position.altitude,
              km * 1000.0);
  }
  const QntnConfig defaults;
  const QntnConfig parsed = parse_config(serialize_config(defaults));
  EXPECT_NEAR(parsed.hap_position.latitude, defaults.hap_position.latitude,
              1e-12);
  EXPECT_EQ(parsed.hap_position.altitude, defaults.hap_position.altitude);
}

// The key table is the serialized key list, in order.
TEST(ConfigIo, KeyTableIsTheSerializedKeyList) {
  std::istringstream doc(serialize_config(QntnConfig{}));
  std::string line;
  std::getline(doc, line);  // the header comment
  for (const ConfigKeyInfo& key : config_keys()) {
    ASSERT_TRUE(std::getline(doc, line)) << key.name;
    EXPECT_EQ(line.substr(0, line.find(" = ")), key.name);
  }
  EXPECT_FALSE(std::getline(doc, line)) << "unlisted key: " << line;
}

TEST(ConfigIo, EveryKeyRejectsMalformedValuesNamingLineAndKey) {
  for (const ConfigKeyInfo& key : config_keys()) {
    std::vector<std::string> values = {"", "abc", "1x"};
    const bool numeric =
        key.value == ConfigValue::Real || key.value == ConfigValue::Degrees;
    if (!numeric || key.in_domain != nullptr) values.push_back("nan");
    for (const std::string& value : values) {
      const std::string line = std::string(key.name) + " = " + value;
      SCOPED_TRACE(line);
      try {
        (void)parse_config("# one key\n" + line + "\n");
        FAIL() << "must throw at parse";
      } catch (const Error& e) {
        const std::string where =
            "config line 2 (" + std::string(key.name) + "): ";
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << e.what();
      }
    }
  }
}

// A random value parse_config accepts when `key` is the document's only
// line: in the key's own domain and, for the keys a cross-field check ties
// to another key's default, within what that check allows.
std::string random_value(const ConfigKeyInfo& key, Rng& rng) {
  std::ostringstream os;
  os.precision(12);
  switch (key.value) {
    case ConfigValue::Flag:
      return rng.uniform_int(0, 1) == 1 ? "true" : "false";
    case ConfigValue::Name:
      return std::string(key.names.at(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(key.names.size()) - 1))));
    case ConfigValue::Count:
      // From 1: traffic_node_capacity and traffic_max_backlog must be
      // positive (traffic_options). Up to 2^53, where doubles stay exact.
      os << static_cast<std::uint64_t>(std::ldexp(
          rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform_int(1, 53))));
      return os.str();
    case ConfigValue::Real:
    case ConfigValue::Degrees:
      break;
  }
  const std::map<std::string, std::pair<double, double>> kCrossField = {
      {"em_memory_t1_s", {2.5, 1e4}},   // the default T2 = 5 <= 2 T1
      {"em_memory_t2_s", {1e-3, 20.0}},  // <= 2 T1 at the default T1 = 10
      {"traffic_diurnal_amplitude", {0.0, 1.0}},
  };
  const auto bound = kCrossField.find(std::string(key.name));
  for (;;) {
    const double magnitude = std::pow(10.0, rng.uniform(-3.0, 5.0));
    const double value = rng.uniform_int(0, 1) == 1 ? magnitude : -magnitude;
    if (key.in_domain != nullptr && !key.in_domain(value)) continue;
    if (bound != kCrossField.end() &&
        !(value >= bound->second.first && value <= bound->second.second)) {
      continue;
    }
    os << value;
    return os.str();
  }
}

TEST(ConfigIo, EveryKeyRoundTripsRandomInDomainValuesByteForByte) {
  Rng rng(20261020);
  for (int trial = 0; trial < 25; ++trial) {
    for (const ConfigKeyInfo& key : config_keys()) {
      const std::string line =
          std::string(key.name) + " = " + random_value(key, rng);
      SCOPED_TRACE(line);
      const std::string once = serialize_config(parse_config(line + "\n"));
      EXPECT_NE(once.find("\n" + line + "\n"), std::string::npos) << once;
      EXPECT_EQ(serialize_config(parse_config(once)), once);
    }
  }
}

}  // namespace
}  // namespace qntn::core
