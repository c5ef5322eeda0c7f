#pragma once

#include "net/routing.hpp"
#include "quantum/fidelity.hpp"
#include "sim/requests.hpp"
#include "sim/topology.hpp"

/// \file snapshot.hpp
/// Per-worker serving engine of the parallel snapshot pipeline. Each worker
/// of the scenario loop owns one SnapshotServer: a reusable TopologySnapshot
/// slot plus the serving scratch (edge costs, per-source route trees). On an
/// epoch-partitioned provider, consecutive steps inside one epoch refresh
/// the snapshot graph in place (zero allocation) and — for eta-independent
/// metrics — reuse the shortest-path trees outright, so a worker pays one
/// graph build and one routing pass per *epoch* instead of per step. The
/// results are bitwise identical to serving a freshly built graph at every
/// step, which is what keeps the parallel and serial scenario paths
/// byte-for-byte equal.

namespace qntn::sim {

class SnapshotServer {
 public:
  /// Borrows everything; topology and batch must outlive the server.
  SnapshotServer(const TopologyProvider& topology, const RequestBatch& batch,
                 net::CostMetric metric, quantum::FidelityConvention convention)
      : topology_(topology),
        batch_(batch),
        metric_(metric),
        convention_(convention) {}

  /// Snapshot the topology at time t and serve the whole batch on it
  /// (outcomes recorded). Queries at nondecreasing times within one epoch
  /// hit the in-place refresh and tree-reuse fast paths automatically.
  [[nodiscard]] ServeResult serve_at(double t);

  /// The graph served by the last serve_at call (e.g. for coverage checks
  /// sharing the snapshot).
  [[nodiscard]] const net::Graph& graph() const { return snap_.graph; }

 private:
  const TopologyProvider& topology_;
  const RequestBatch& batch_;
  net::CostMetric metric_;
  quantum::FidelityConvention convention_;
  TopologySnapshot snap_;
  ServeScratch scratch_;
};

}  // namespace qntn::sim
