#include "sim/network_model.hpp"

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constellation.hpp"

namespace qntn::sim {
namespace {

channel::OpticalTerminal terminal() { return {1.2, 1e-7}; }

std::vector<geo::Geodetic> two_sites() {
  return {geo::Geodetic::from_degrees(36.0, -85.0, 0.0),
          geo::Geodetic::from_degrees(36.01, -85.0, 0.0)};
}

orbit::Ephemeris sample_ephemeris() {
  const auto elements = orbit::qntn_constellation(6);
  return orbit::Ephemeris::generate(orbit::TwoBodyPropagator(elements[0]),
                                    3600.0, 30.0);
}

TEST(NetworkModel, LanNodesGetStableSequentialIds) {
  NetworkModel model;
  const std::size_t lan0 = model.add_lan("A", two_sites(), terminal());
  const std::size_t lan1 = model.add_lan("B", two_sites(), terminal());
  EXPECT_EQ(lan0, 0u);
  EXPECT_EQ(lan1, 1u);
  EXPECT_EQ(model.node_count(), 4u);
  EXPECT_EQ(model.lan_nodes(0), (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(model.lan_nodes(1), (std::vector<net::NodeId>{2, 3}));
  EXPECT_EQ(model.lan_name(1), "B");
  EXPECT_EQ(model.node(2).lan, 1u);
  EXPECT_EQ(model.node(2).kind, NodeKind::Ground);
}

TEST(NetworkModel, HapAndSatelliteRegistration) {
  NetworkModel model;
  model.add_lan("A", two_sites(), terminal());
  const net::NodeId hap = model.add_hap(
      "H", geo::Geodetic::from_degrees(35.7, -85.1, 30'000.0), {0.3, 1e-7});
  const net::NodeId sat = model.add_satellite("S", sample_ephemeris(), terminal());
  EXPECT_EQ(model.hap_ids(), std::vector<net::NodeId>{hap});
  EXPECT_EQ(model.satellite_ids(), std::vector<net::NodeId>{sat});
  EXPECT_EQ(model.node(hap).kind, NodeKind::Hap);
  EXPECT_EQ(model.node(sat).kind, NodeKind::Satellite);
}

TEST(NetworkModel, IdStabilityOrderingEnforced) {
  NetworkModel model;
  model.add_lan("A", two_sites(), terminal());
  model.add_satellite("S", sample_ephemeris(), terminal());
  // LANs and HAPs must come before satellites.
  EXPECT_THROW((void)model.add_lan("B", two_sites(), terminal()), PreconditionError);
  EXPECT_THROW((void)
      model.add_hap("H", geo::Geodetic::from_degrees(35.0, -85.0, 3e4), terminal()),
      PreconditionError);
}

TEST(NetworkModel, FixedNodesDoNotMove) {
  NetworkModel model;
  model.add_lan("A", two_sites(), terminal());
  const channel::Endpoint e0 = model.endpoint_at(0, 0.0);
  const channel::Endpoint e1 = model.endpoint_at(0, 50'000.0);
  EXPECT_DOUBLE_EQ(distance(e0.ecef, e1.ecef), 0.0);
}

TEST(NetworkModel, SatellitesMoveAlongEphemeris) {
  NetworkModel model;
  model.add_lan("A", two_sites(), terminal());
  const net::NodeId sat = model.add_satellite("S", sample_ephemeris(), terminal());
  const channel::Endpoint e0 = model.endpoint_at(sat, 0.0);
  const channel::Endpoint e1 = model.endpoint_at(sat, 600.0);
  // 10 minutes of LEO motion is thousands of kilometres.
  EXPECT_GT(distance(e0.ecef, e1.ecef), 1e6);
  // Satellite altitude near 500 km.
  EXPECT_NEAR(e0.geodetic.altitude, 500e3, 25e3);
}

TEST(NetworkModel, PositionEcefIsEndpointEcefBitForBit) {
  NetworkModel model;
  model.add_lan("A", two_sites(), terminal());
  model.add_hap("H", geo::Geodetic::from_degrees(35.7, -85.1, 30'000.0),
                {0.3, 1e-7});
  model.add_satellite("S", sample_ephemeris(), terminal());
  for (net::NodeId id = 0; id < model.node_count(); ++id) {
    for (const double t : {0.0, 45.0, 1'234.5}) {
      const Vec3 p = model.position_ecef(id, t);
      const Vec3 e = model.endpoint_at(id, t).ecef;
      EXPECT_EQ(p.x, e.x);
      EXPECT_EQ(p.y, e.y);
      EXPECT_EQ(p.z, e.z);
    }
  }
  EXPECT_THROW((void)model.position_ecef(model.node_count(), 0.0),
               PreconditionError);
}

TEST(NetworkModel, RejectsEmptyLan) {
  NetworkModel model;
  EXPECT_THROW((void)model.add_lan("empty", {}, terminal()), PreconditionError);
}

}  // namespace
}  // namespace qntn::sim
