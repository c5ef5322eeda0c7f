#include "sim/em_snapshot.hpp"

namespace qntn::sim {

EmSnapshotServer::EmSnapshotServer(const TopologyProvider& topology,
                                   const RequestBatch& batch,
                                   const em::EmOptions& options,
                                   quantum::FidelityConvention convention)
    : topology_(topology), convention_(convention), manager_(options) {
  requests_.reserve(batch.requests.size());
  for (const Request& request : batch.requests) {
    requests_.push_back(em::EmRequest{request.source, request.destination});
  }
}

em::EmServeResult EmSnapshotServer::serve_at(double t) {
  topology_.snapshot_at(t, snap_);
  return manager_.serve(snap_.graph, requests_, snap_.epoch, convention_,
                        /*record_outcomes=*/true);
}

}  // namespace qntn::sim
