#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file graph.hpp
/// Undirected network graph with transmissivity-weighted edges. This is the
/// object the routing layer operates on; the simulator rebuilds (or
/// re-weights) it at every time step as satellites move.

namespace qntn::net {

using NodeId = std::size_t;

/// An undirected edge with optical transmissivity eta in [0, 1].
struct Edge {
  NodeId a = 0;
  NodeId b = 0;
  double transmissivity = 0.0;
};

/// Half-edge stored in adjacency lists.
struct Adjacency {
  NodeId to = 0;
  double transmissivity = 0.0;
};

class Graph {
 public:
  /// Add a node with an optional display name; returns its id (dense,
  /// starting at 0).
  NodeId add_node(std::string name = {});

  /// Add an undirected edge. Preconditions: distinct existing endpoints,
  /// eta in [0, 1]. Parallel edges are allowed (the routers simply see two
  /// relaxation opportunities); self-loops are rejected.
  void add_edge(NodeId a, NodeId b, double transmissivity);

  /// Re-weight an existing edge in place (edge list and both adjacency
  /// entries), keeping the graph structure untouched. This is the epoch
  /// snapshot fast path: within one contact-plan epoch the edge *set* is
  /// fixed and only transmissivities vary, so a per-epoch skeleton graph is
  /// refreshed with zero allocation. Preconditions as add_edge.
  void set_edge_transmissivity(std::size_t edge_index, double transmissivity);

  /// Drop every edge with index >= count (the most recently added ones),
  /// keeping nodes and the first `count` edges untouched. With add_edge
  /// this makes the graph a reusable skeleton + tail: the epoch snapshot
  /// engine truncates back to the static skeleton and re-appends the new
  /// epoch's dynamic edges, reusing all adjacency storage.
  void truncate_edges(std::size_t count);

  [[nodiscard]] std::size_t node_count() const { return names_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::string& name(NodeId id) const { return names_[id]; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<Adjacency>& neighbors(NodeId id) const {
    return adjacency_[id];
  }

  /// True if u and v are in the same connected component (BFS).
  [[nodiscard]] bool connected(NodeId u, NodeId v) const;

  /// Component label for every node (labels are dense, smallest-id first).
  [[nodiscard]] std::vector<std::size_t> components() const;

 private:
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  std::vector<std::vector<Adjacency>> adjacency_;
  /// Per edge: its slot in adjacency_[a] and adjacency_[b], so re-weighting
  /// is O(1) instead of an adjacency scan.
  std::vector<std::pair<std::size_t, std::size_t>> edge_slots_;
};

}  // namespace qntn::net
