#pragma once

#include "em/serving.hpp"
#include "quantum/fidelity.hpp"
#include "sim/requests.hpp"
#include "sim/topology.hpp"

/// \file em_snapshot.hpp
/// Per-worker serving engine for the entanglement-management scenario mode:
/// the em counterpart of sim::SnapshotServer. Each worker of the scenario
/// loop owns one EmSnapshotServer — a reusable TopologySnapshot slot plus an
/// em::EntanglementManager whose per-epoch k-disjoint route cache plays the
/// role the per-source tree cache plays in single-shot serving. Serving is a
/// pure function of the snapshot, so the parallel and serial scenario paths
/// stay byte-for-byte identical (see DESIGN.md §11).

namespace qntn::sim {

class EmSnapshotServer {
 public:
  /// Borrows topology and batch; both must outlive the server.
  EmSnapshotServer(const TopologyProvider& topology, const RequestBatch& batch,
                   const em::EmOptions& options,
                   quantum::FidelityConvention convention);

  /// Snapshot the topology at time t and serve the whole batch from the
  /// buffered-pair pool (outcomes recorded).
  [[nodiscard]] em::EmServeResult serve_at(double t);

 private:
  const TopologyProvider& topology_;
  std::vector<em::EmRequest> requests_;
  quantum::FidelityConvention convention_;
  TopologySnapshot snap_;
  em::EntanglementManager manager_;
};

}  // namespace qntn::sim
