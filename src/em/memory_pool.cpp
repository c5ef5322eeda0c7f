#include "em/memory_pool.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace qntn::em {

void MemoryPoolOptions::validate() const {
  QNTN_REQUIRE(slots_per_node > 0, "em memory slots_per_node must be positive");
  QNTN_REQUIRE(generation_period > 0.0,
               "em generation_period must be positive (got " +
                   std::to_string(generation_period) + " s)");
  QNTN_REQUIRE(max_storage >= 0.0, "em max_storage must be non-negative");
  memory.validate();
}

MemoryPool::MemoryPool(const MemoryPoolOptions& options) : options_(options) {
  options_.validate();
}

void MemoryPool::rebuild(const net::Graph& graph) {
  const std::vector<net::Edge>& edges = graph.edges();
  capacity_.assign(edges.size(), 0);
  consumed_.assign(edges.size(), 0);
  buffered_ = 0;
  consumed_total_ = 0;
  occupancy_ = 0.0;

  // Degree of every node under the snapshot's edge set.
  std::vector<std::size_t> degree(graph.node_count(), 0);
  for (const net::Edge& e : edges) {
    ++degree[e.a];
    ++degree[e.b];
  }

  // Pairs the storage lifetime admits: ages {0, d, 2d, ...} <= max_storage.
  const std::size_t lifetime_cap =
      1 + static_cast<std::size_t>(
              std::floor(options_.max_storage / options_.generation_period));

  // Fair-share slot split: a node's quota for its i-th incident edge (in
  // global edge order) is slots/degree, the first slots%degree edges getting
  // one extra. An edge buffers min of its two endpoint quotas, capped by the
  // lifetime ladder. Depends only on the edge set => identical for every
  // snapshot of one epoch, and identical across thread counts.
  std::vector<std::size_t> seen(graph.node_count(), 0);
  const auto quota = [this, &degree, &seen](net::NodeId v) {
    const std::size_t d = degree[v];
    const std::size_t base = options_.slots_per_node / d;
    const std::size_t extra = options_.slots_per_node % d;
    const std::size_t rank = seen[v]++;
    return base + (rank < extra ? 1 : 0);
  };
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::size_t cap =
        std::min({quota(edges[i].a), quota(edges[i].b), lifetime_cap});
    capacity_[i] = cap;
    buffered_ += cap;
  }

  std::size_t linked_nodes = 0;
  for (const std::size_t d : degree) {
    if (d > 0) ++linked_nodes;
  }
  if (linked_nodes > 0) {
    occupancy_ = static_cast<double>(2 * buffered_) /
                 static_cast<double>(linked_nodes * options_.slots_per_node);
  }
}

void MemoryPool::reset_consumption() {
  std::fill(consumed_.begin(), consumed_.end(), 0);
  consumed_total_ = 0;
}

std::size_t MemoryPool::available(std::size_t edge_index) const {
  QNTN_REQUIRE(edge_index < capacity_.size(), "edge index out of range");
  return capacity_[edge_index] - consumed_[edge_index];
}

bool MemoryPool::try_consume(std::size_t edge_index, std::size_t count) {
  if (available(edge_index) < count) return false;
  consumed_[edge_index] += count;
  consumed_total_ += count;
  return true;
}

double MemoryPool::next_age(std::size_t edge_index) const {
  QNTN_REQUIRE(available(edge_index) > 0, "edge buffer is exhausted");
  // Youngest-first: ranks 0..consumed-1 are gone, the next pair is rank
  // `consumed` with age rank * generation_period.
  return static_cast<double>(consumed_[edge_index]) *
         options_.generation_period;
}

}  // namespace qntn::em
