#pragma once

#include <cstddef>
#include <vector>

#include "quantum/fidelity.hpp"
#include "quantum/memory.hpp"

/// \file swap_tree.hpp
/// Swap-tree scheduling: how a multi-hop request is realised from buffered
/// elementary pairs. Every relay of an H-hop route performs one Bell-state
/// measurement (H-1 swaps total); what the *tree shape* controls is how
/// many rounds of classical heralding the end nodes wait for, and hence how
/// long every pair sits in memory decohering:
///  - balanced tree: swaps proceed level by level, depth = ceil(log2 H);
///  - linear chain:  swaps proceed left to right, depth = H - 1.
/// The fidelity of the swapped chain is computed with the closed form
/// pinned against the density-matrix quantum::swap_chain by tests/em.

namespace qntn::em {

struct SwapPlanOptions {
  /// Classical two-way heralding latency charged per tree level [s].
  double heralding_latency = 0.01;
  /// Balanced tree (logarithmic depth) vs. left-to-right chain.
  bool balanced = true;

  /// Throws qntn::Error on a negative or non-finite latency.
  void validate() const;
};

/// Shape of the swap schedule for one route.
struct SwapPlan {
  std::size_t hops = 0;
  std::size_t swaps = 0;           ///< hops - 1 Bell-state measurements
  std::size_t depth = 0;           ///< heralding rounds the end nodes wait
  double heralding_delay = 0.0;    ///< depth * heralding_latency [s]
};

/// Plan the swap schedule for a route of `hops` elementary links
/// (hops >= 1; one hop needs no swap and no heralding round).
[[nodiscard]] SwapPlan plan_swap_tree(std::size_t hops,
                                      const SwapPlanOptions& options);

/// End-to-end transmissivity of a chain: product of the hop etas.
[[nodiscard]] double chain_transmissivity(const std::vector<double>& hop_etas);

/// Closed-form fidelity of swapping an H-hop chain whose hop pairs each
/// carry transmissivity hop_etas[i] and have been stored for
/// storage_durations[i] seconds in `memory` before their swap completes.
/// With s_i = e^{-d_i/T1} and dephasing parameter p_i, the swapped state
/// keeps the single-pair form with population E = prod(eta_i s_i) and
/// coherence sqrt(E) * prod(1 - 2 p_i), giving
///   F_jozsa = (1 + E)/4 + sqrt(E) * prod(1 - 2 p_i) / 2.
/// Exact against the density-matrix swap (not an approximation) — see
/// tests/em/swap_tree_test.cpp, which pins this against quantum::swap_chain
/// on MemoryModel::store-built pairs.
[[nodiscard]] double swapped_chain_fidelity(
    const std::vector<double>& hop_etas,
    const std::vector<double>& storage_durations,
    const quantum::MemoryModel& memory,
    quantum::FidelityConvention convention);

}  // namespace qntn::em
