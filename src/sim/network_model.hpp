#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "channel/fso.hpp"
#include "channel/link_budget.hpp"
#include "geo/geodetic.hpp"
#include "net/graph.hpp"
#include "orbit/ephemeris.hpp"

/// \file network_model.hpp
/// The physical network: ground LANs (fixed nodes connected by fiber),
/// hovering HAPs, and orbiting satellites with precomputed ephemerides.
/// Node ids are stable over time (grounds first, then HAPs, then
/// satellites), so request endpoints and per-step graphs can share ids.
/// This is the C++ analogue of the paper's extended QuNetSim Host /
/// Satellite / HAP classes (Section III-C).

namespace qntn::sim {

enum class NodeKind { Ground, Hap, Satellite };

struct Node {
  NodeKind kind = NodeKind::Ground;
  std::string name;
  /// LAN index for ground nodes; SIZE_MAX otherwise.
  std::size_t lan = SIZE_MAX;
  /// Fixed geodetic position (ground and HAP nodes).
  geo::Geodetic position;
  /// Ephemeris index into NetworkModel::ephemerides() for satellites.
  std::size_t ephemeris_index = SIZE_MAX;
  /// Optical terminal characteristics for FSO links.
  channel::OpticalTerminal terminal;
};

class NetworkModel {
 public:
  /// Add a LAN of fixed ground nodes; returns the LAN index.
  std::size_t add_lan(const std::string& name,
                      const std::vector<geo::Geodetic>& node_positions,
                      const channel::OpticalTerminal& terminal);

  /// Add a hovering HAP; returns its node id.
  net::NodeId add_hap(const std::string& name, const geo::Geodetic& position,
                      const channel::OpticalTerminal& terminal);

  /// Add a satellite with its ephemeris; returns its node id.
  net::NodeId add_satellite(const std::string& name, orbit::Ephemeris ephemeris,
                            const channel::OpticalTerminal& terminal);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const Node& node(net::NodeId id) const { return nodes_[id]; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  [[nodiscard]] std::size_t lan_count() const { return lans_.size(); }
  [[nodiscard]] const std::string& lan_name(std::size_t lan) const {
    return lan_names_[lan];
  }
  [[nodiscard]] const std::vector<net::NodeId>& lan_nodes(std::size_t lan) const {
    return lans_[lan];
  }

  [[nodiscard]] const std::vector<net::NodeId>& hap_ids() const { return haps_; }
  [[nodiscard]] const std::vector<net::NodeId>& satellite_ids() const {
    return satellites_;
  }

  /// Endpoint (geodetic + ECEF) of any node at simulation time t [s].
  [[nodiscard]] channel::Endpoint endpoint_at(net::NodeId id, double t) const;

  /// ECEF position of any node at time t [s]: endpoint_at(id, t).ecef
  /// bit for bit, without the geodetic conversion a satellite would pay.
  [[nodiscard]] Vec3 position_ecef(net::NodeId id, double t) const;

  /// Ephemeris of a satellite node (precondition: id is a satellite). Lets
  /// pass prediction and the contact-plan compiler reuse the trajectory
  /// tables directly instead of round-tripping through endpoint_at.
  [[nodiscard]] const orbit::Ephemeris& ephemeris(net::NodeId id) const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::vector<net::NodeId>> lans_;
  std::vector<std::string> lan_names_;
  std::vector<net::NodeId> haps_;
  std::vector<net::NodeId> satellites_;
  std::vector<orbit::Ephemeris> ephemerides_;
  /// Cached ECEF positions for fixed nodes (ground, HAP).
  std::vector<Vec3> fixed_ecef_;
};

}  // namespace qntn::sim
