#include "core/scenario_factory.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "orbit/constellation.hpp"

namespace qntn::core {
namespace {

TEST(Factory, GroundModelMatchesTableI) {
  const QntnConfig config;
  const sim::NetworkModel model = build_ground_model(config);
  EXPECT_EQ(model.lan_count(), 3u);
  EXPECT_EQ(model.node_count(), 31u);
  EXPECT_EQ(model.lan_name(0), "TTU");
  EXPECT_EQ(model.lan_name(1), "EPB");
  EXPECT_EQ(model.lan_name(2), "ORNL");
  EXPECT_EQ(model.lan_nodes(0).size(), 5u);
  EXPECT_EQ(model.lan_nodes(1).size(), 15u);
  EXPECT_EQ(model.lan_nodes(2).size(), 11u);
  EXPECT_TRUE(model.hap_ids().empty());
  EXPECT_TRUE(model.satellite_ids().empty());
}

TEST(Factory, SpaceGroundModelAddsConstellation) {
  QntnConfig config;
  config.day_duration = 3'600.0;  // keep ephemeris generation fast
  const sim::NetworkModel model = build_space_ground_model(config, 12);
  EXPECT_EQ(model.node_count(), 43u);
  EXPECT_EQ(model.satellite_ids().size(), 12u);
  // Ground ids stay 0..30; satellites follow.
  EXPECT_EQ(model.satellite_ids().front(), 31u);
  // Satellites carry full ephemerides at the paper altitude.
  const channel::Endpoint e = model.endpoint_at(31, 1'800.0);
  EXPECT_NEAR(e.geodetic.altitude, orbit::kQntnAltitude, 25'000.0);
}

TEST(Factory, AirGroundModelAddsTheOneHap) {
  const QntnConfig config;
  const sim::NetworkModel model = build_air_ground_model(config);
  EXPECT_EQ(model.node_count(), 32u);
  ASSERT_EQ(model.hap_ids().size(), 1u);
  const sim::Node& hap = model.node(model.hap_ids().front());
  EXPECT_EQ(hap.kind, sim::NodeKind::Hap);
  EXPECT_NEAR(rad_to_deg(hap.position.latitude), 35.6692, 1e-9);
  EXPECT_DOUBLE_EQ(hap.position.altitude, 30'000.0);
  EXPECT_DOUBLE_EQ(hap.terminal.aperture_radius, config.hap_aperture_radius);
}

TEST(Factory, HybridModelHasBoth) {
  QntnConfig config;
  config.day_duration = 3'600.0;
  const sim::NetworkModel model = build_hybrid_model(config, 6);
  EXPECT_EQ(model.hap_ids().size(), 1u);
  EXPECT_EQ(model.satellite_ids().size(), 6u);
  EXPECT_EQ(model.node_count(), 38u);
  // Id stability ordering: grounds, then HAP, then satellites.
  EXPECT_EQ(model.hap_ids().front(), 31u);
  EXPECT_EQ(model.satellite_ids().front(), 32u);
}

TEST(Factory, ConfigurationFlowsIntoTerminals) {
  QntnConfig config;
  config.ground_aperture_radius = 0.99;
  config.pointing_jitter = 5e-7;
  const sim::NetworkModel model = build_ground_model(config);
  EXPECT_DOUBLE_EQ(model.node(0).terminal.aperture_radius, 0.99);
  EXPECT_DOUBLE_EQ(model.node(0).terminal.pointing_jitter, 5e-7);
}

TEST(Factory, J2FlagChangesTheTrajectories) {
  QntnConfig two_body;
  two_body.day_duration = 21'600.0;
  QntnConfig with_j2 = two_body;
  with_j2.include_j2 = true;
  const sim::NetworkModel a = build_space_ground_model(two_body, 6);
  const sim::NetworkModel b = build_space_ground_model(with_j2, 6);
  // After six hours the J2 nodal drift separates the ephemerides by km.
  const double separation = distance(a.endpoint_at(31, 21'000.0).ecef,
                                     b.endpoint_at(31, 21'000.0).ecef);
  EXPECT_GT(separation, 1'000.0);
}

// Every satellite's ephemeris reads one shared, read-only sample grid; no
// pool, a one-worker pool and a four-worker pool must give the same samples
// bit for bit.
TEST(Factory, ConstellationSamplesAreBitIdenticalAcrossThreadCounts) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ThreadPool one(1);
  ThreadPool four(4);
  for (const bool j2 : {false, true}) {
    QntnConfig config;
    config.include_j2 = j2;
    const sim::NetworkModel serial = build_space_ground_model(config, 36);
    for (ThreadPool* pool : {&one, &four}) {
      const sim::NetworkModel model =
          build_space_ground_model(config, 36, pool);
      ASSERT_EQ(model.satellite_ids(), serial.satellite_ids());
      std::size_t mismatches = 0;
      for (const net::NodeId id : serial.satellite_ids()) {
        const orbit::Ephemeris& want = serial.ephemeris(id);
        const orbit::Ephemeris& got = model.ephemeris(id);
        ASSERT_EQ(got.sample_count(), want.sample_count());
        EXPECT_EQ(bits(got.duration()), bits(want.duration()));
        for (std::size_t i = 0; i < want.sample_count(); ++i) {
          const Vec3& a = got.sample(i);
          const Vec3& b = want.sample(i);
          if (bits(a.x) != bits(b.x) || bits(a.y) != bits(b.y) ||
              bits(a.z) != bits(b.z)) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << "j2 " << j2 << ", " << pool->size() << " worker(s)";
    }
  }
}

}  // namespace
}  // namespace qntn::core
