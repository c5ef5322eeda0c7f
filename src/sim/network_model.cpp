#include "sim/network_model.hpp"

#include "common/error.hpp"

namespace qntn::sim {

std::size_t NetworkModel::add_lan(const std::string& name,
                                  const std::vector<geo::Geodetic>& node_positions,
                                  const channel::OpticalTerminal& terminal) {
  QNTN_REQUIRE(!node_positions.empty(), "a LAN needs at least one node");
  QNTN_REQUIRE(satellites_.empty() && haps_.empty(),
               "add all LANs before HAPs and satellites (id stability)");
  const std::size_t lan = lans_.size();
  std::vector<net::NodeId> ids;
  ids.reserve(node_positions.size());
  for (std::size_t i = 0; i < node_positions.size(); ++i) {
    Node node;
    node.kind = NodeKind::Ground;
    node.name = name + "/" + std::to_string(i);
    node.lan = lan;
    node.position = node_positions[i];
    node.terminal = terminal;
    ids.push_back(nodes_.size());
    nodes_.push_back(std::move(node));
    fixed_ecef_.push_back(geo::geodetic_to_ecef(node_positions[i]));
  }
  lans_.push_back(std::move(ids));
  lan_names_.push_back(name);
  return lan;
}

net::NodeId NetworkModel::add_hap(const std::string& name,
                                  const geo::Geodetic& position,
                                  const channel::OpticalTerminal& terminal) {
  QNTN_REQUIRE(satellites_.empty(), "add HAPs before satellites (id stability)");
  Node node;
  node.kind = NodeKind::Hap;
  node.name = name;
  node.position = position;
  node.terminal = terminal;
  const net::NodeId id = nodes_.size();
  nodes_.push_back(std::move(node));
  fixed_ecef_.push_back(geo::geodetic_to_ecef(position));
  haps_.push_back(id);
  return id;
}

net::NodeId NetworkModel::add_satellite(const std::string& name,
                                        orbit::Ephemeris ephemeris,
                                        const channel::OpticalTerminal& terminal) {
  Node node;
  node.kind = NodeKind::Satellite;
  node.name = name;
  node.ephemeris_index = ephemerides_.size();
  node.terminal = terminal;
  const net::NodeId id = nodes_.size();
  nodes_.push_back(std::move(node));
  ephemerides_.push_back(std::move(ephemeris));
  satellites_.push_back(id);
  return id;
}

channel::Endpoint NetworkModel::endpoint_at(net::NodeId id, double t) const {
  QNTN_REQUIRE(id < nodes_.size(), "node id out of range");
  const Node& node = nodes_[id];
  if (node.kind == NodeKind::Satellite) {
    return channel::Endpoint::from_ecef(
        ephemerides_[node.ephemeris_index].position_ecef(t));
  }
  return {node.position, fixed_ecef_[id]};
}

Vec3 NetworkModel::position_ecef(net::NodeId id, double t) const {
  QNTN_REQUIRE(id < nodes_.size(), "node id out of range");
  const Node& node = nodes_[id];
  if (node.kind == NodeKind::Satellite) {
    return ephemerides_[node.ephemeris_index].position_ecef(t);
  }
  return fixed_ecef_[id];
}

const orbit::Ephemeris& NetworkModel::ephemeris(net::NodeId id) const {
  QNTN_REQUIRE(id < nodes_.size(), "node id out of range");
  const Node& node = nodes_[id];
  QNTN_REQUIRE(node.kind == NodeKind::Satellite, "node has no ephemeris");
  return ephemerides_[node.ephemeris_index];
}

}  // namespace qntn::sim
