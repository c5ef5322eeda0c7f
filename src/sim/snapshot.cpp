#include "sim/snapshot.hpp"

namespace qntn::sim {

ServeResult SnapshotServer::serve_at(double t) {
  const std::size_t prev_epoch = snap_.epoch;
  const void* prev_owner = snap_.owner;
  topology_.snapshot_at(t, snap_);
  // Trees survive a same-epoch refresh only when routes cannot depend on
  // the refreshed transmissivities.
  const bool reuse_trees = net::metric_is_eta_independent(metric_) &&
                           snap_.epoch != TopologyProvider::kNoEpoch &&
                           snap_.epoch == prev_epoch &&
                           snap_.owner == prev_owner;
  return serve_snapshot(snap_.graph, batch_, metric_, convention_, scratch_,
                        /*record_outcomes=*/true, reuse_trees);
}

}  // namespace qntn::sim
