#pragma once

#include <cstddef>
#include <vector>

#include "net/graph.hpp"
#include "quantum/memory.hpp"

/// \file memory_pool.hpp
/// Buffered elementary-pair memories — the storage substrate of the
/// entanglement-management layer (DESIGN.md §11). Every link of the current
/// epoch topology continuously generates elementary pairs into the quantum
/// memories at its two endpoints; a pair survives until either its memory
/// slot is recycled (bounded memory) or it decoheres past usefulness
/// (bounded storage time). The pool models the *steady state* of that
/// process at a snapshot instant: the buffer of a link holds its
/// `generation_period`-spaced ladder of pair ages, truncated by the
/// fair-share slot allocation at both endpoints and by `max_storage`.
///
/// Determinism discipline: the buffered state is a pure function of the
/// snapshot's edge set and the pool options — no history is carried between
/// snapshots — so the parallel snapshot engine can serve steps in any order
/// on any thread count and stay byte-identical to the serial run.

namespace qntn::em {

struct MemoryPoolOptions {
  /// Pair halves a node's quantum memory can hold concurrently. Shared
  /// fairly across the node's incident links (quota = slots / degree, the
  /// first slots % degree links in edge order getting one extra).
  std::size_t slots_per_node = 8;
  /// Seconds between successive elementary-pair generations on one link;
  /// the j-th youngest buffered pair has age j * generation_period.
  double generation_period = 0.05;
  /// Pairs stored longer than this are considered decohered and recycled
  /// (their memory slots return to the generator).
  double max_storage = 1.0;
  /// Decoherence during storage (applied to the stored half of each pair).
  quantum::MemoryModel memory{};

  /// Throws qntn::Error on unphysical or degenerate parameters (including
  /// MemoryModel::validate()).
  void validate() const;
};

/// Per-snapshot view of the buffered pairs. rebuild() derives the buffer
/// ladder for every edge of a graph; try_consume() then spends pairs
/// youngest-first as the scheduler commits requests. reset_consumption()
/// returns every spent pair, so one rebuild serves every snapshot of a
/// topology epoch.
class MemoryPool {
 public:
  explicit MemoryPool(const MemoryPoolOptions& options);

  /// Recompute the per-edge buffers for a graph, with nothing consumed.
  /// Buffer sizes depend only on the edge endpoints in edge order
  /// (fair-share slot allocation and the storage-lifetime cap), so within
  /// one topology epoch every snapshot sees identical buffers.
  void rebuild(const net::Graph& graph);

  /// Return every consumed pair: the buffers of the last rebuild(), full.
  void reset_consumption();

  /// Pairs still available on edge `edge_index` (buffered minus consumed).
  [[nodiscard]] std::size_t available(std::size_t edge_index) const;

  /// Consume `count` pairs from the edge, youngest first. Returns false
  /// (and consumes nothing) when fewer than `count` remain.
  [[nodiscard]] bool try_consume(std::size_t edge_index, std::size_t count);

  /// Age [s] of the next pair try_consume would take from the edge (its
  /// youngest remaining pair). Precondition: available(edge_index) > 0.
  [[nodiscard]] double next_age(std::size_t edge_index) const;

  /// Total pairs buffered across all edges at rebuild time.
  [[nodiscard]] std::size_t buffered() const { return buffered_; }
  /// Pairs consumed since the last rebuild() or reset_consumption().
  [[nodiscard]] std::size_t consumed() const { return consumed_total_; }

  /// Fraction of memory slots (over nodes with at least one link) holding a
  /// pair half at rebuild time, in [0, 1]. 0 when no node has a link.
  [[nodiscard]] double occupancy() const { return occupancy_; }

  [[nodiscard]] const MemoryPoolOptions& options() const { return options_; }

 private:
  MemoryPoolOptions options_;
  /// Per edge: pairs the steady-state buffer holds at the snapshot.
  std::vector<std::size_t> capacity_;
  /// Per edge: pairs consumed so far this snapshot.
  std::vector<std::size_t> consumed_;
  std::size_t buffered_ = 0;
  std::size_t consumed_total_ = 0;
  double occupancy_ = 0.0;
};

}  // namespace qntn::em
