#include "net/graph.hpp"

#include <queue>

#include "common/error.hpp"

namespace qntn::net {

NodeId Graph::add_node(std::string name) {
  const NodeId id = names_.size();
  if (name.empty()) name = "node" + std::to_string(id);
  names_.push_back(std::move(name));
  adjacency_.emplace_back();
  return id;
}

void Graph::add_edge(NodeId a, NodeId b, double transmissivity) {
  QNTN_REQUIRE(a < node_count() && b < node_count(), "edge endpoint out of range");
  QNTN_REQUIRE(a != b, "self-loops are not allowed");
  QNTN_REQUIRE(transmissivity >= 0.0 && transmissivity <= 1.0,
               "transmissivity must be in [0, 1]");
  edges_.push_back({a, b, transmissivity});
  adjacency_[a].push_back({b, transmissivity});
  adjacency_[b].push_back({a, transmissivity});
  edge_slots_.emplace_back(adjacency_[a].size() - 1, adjacency_[b].size() - 1);
}

void Graph::set_edge_transmissivity(std::size_t edge_index,
                                    double transmissivity) {
  QNTN_REQUIRE(edge_index < edges_.size(), "edge index out of range");
  QNTN_REQUIRE(transmissivity >= 0.0 && transmissivity <= 1.0,
               "transmissivity must be in [0, 1]");
  Edge& edge = edges_[edge_index];
  edge.transmissivity = transmissivity;
  const auto [slot_a, slot_b] = edge_slots_[edge_index];
  adjacency_[edge.a][slot_a].transmissivity = transmissivity;
  adjacency_[edge.b][slot_b].transmissivity = transmissivity;
}

void Graph::truncate_edges(std::size_t count) {
  QNTN_REQUIRE(count <= edges_.size(), "truncate count exceeds edge count");
  // Removing in reverse add order keeps every victim's half-edges at the
  // tails of their adjacency lists, so each removal is two pop_backs.
  while (edges_.size() > count) {
    const Edge& edge = edges_.back();
    adjacency_[edge.a].pop_back();
    adjacency_[edge.b].pop_back();
    edges_.pop_back();
    edge_slots_.pop_back();
  }
}

bool Graph::connected(NodeId u, NodeId v) const {
  QNTN_REQUIRE(u < node_count() && v < node_count(), "node out of range");
  if (u == v) return true;
  std::vector<bool> seen(node_count(), false);
  std::queue<NodeId> frontier;
  frontier.push(u);
  seen[u] = true;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop();
    for (const Adjacency& adj : adjacency_[cur]) {
      if (adj.to == v) return true;
      if (!seen[adj.to]) {
        seen[adj.to] = true;
        frontier.push(adj.to);
      }
    }
  }
  return false;
}

std::vector<std::size_t> Graph::components() const {
  std::vector<std::size_t> label(node_count(), SIZE_MAX);
  std::vector<NodeId> frontier;
  frontier.reserve(node_count());
  std::size_t next = 0;
  for (NodeId start = 0; start < node_count(); ++start) {
    if (label[start] != SIZE_MAX) continue;
    const std::size_t comp = next++;
    label[start] = comp;
    frontier.assign(1, start);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const Adjacency& adj : adjacency_[frontier[head]]) {
        if (label[adj.to] == SIZE_MAX) {
          label[adj.to] = comp;
          frontier.push_back(adj.to);
        }
      }
    }
  }
  return label;
}

}  // namespace qntn::net
