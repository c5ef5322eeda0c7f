#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "plan/contact_plan.hpp"
#include "sim/network_model.hpp"
#include "sim/topology.hpp"

/// \file contact_topology.hpp
/// Epoch-partitioned TopologyProvider backed by a compiled ContactPlan.
///
/// Where TopologyBuilder::graph_at re-evaluates every link budget on every
/// call, this provider precomputes the *epoch partition* of the horizon from
/// the plan's sorted open/close events: between two consecutive event times
/// the active-window set — and therefore the edge set — is constant. Epochs
/// are dense (every link-state change opens one), so materialising the full
/// active set per epoch would cost O(epochs x windows) time and memory. The
/// constructor instead stores the sorted event stream plus a sorted
/// active-set *checkpoint* every kCheckpointStride epochs; a query binary-
/// searches the epoch start times, copies the nearest checkpoint at or
/// before the epoch, and merges in the few events between — O(log E +
/// active + stride), lock-free, random-access (no cursor, identical cost
/// forwards, backwards, or from many threads at once). The plan decides
/// which links exist; each active link's transmissivity is evaluated at the
/// query time from the geometry at that time, through the same calls the
/// per-step rebuild makes (TopologyBuilder::dynamic_eta), so wherever both
/// providers realise a link they give it the same eta bit for bit.
/// snapshot_at additionally refreshes a caller-held graph in place: same
/// epoch rewrites only the dynamic etas, and an epoch change truncates the
/// dynamic tail and re-appends it, reusing the graph's storage across
/// epochs.

namespace qntn::plan {

/// Serves sim::TopologyProvider from a ContactPlan. Windows are half-open
/// [start, end): a link exists at its start time and is gone at its end
/// time, matching the per-step rebuild's classification at grid times. The
/// exception is windows clipped at the plan horizon — those never close, so
/// graph_at(horizon) equals the rebuild's final snapshot. All state is
/// immutable after construction; every query is safe from any thread with
/// no synchronisation. The plan and model must outlive the provider, and
/// the model must be the one the plan was compiled for.
///
/// Thread-safety discipline: this class deliberately holds NO mutex, so
/// there is nothing for the clang -Wthread-safety annotations
/// (common/thread_safety.hpp) to guard — concurrent readers are safe
/// because every member is written exactly once, by the constructor.
/// Anyone adding mutable state (a memoisation cache, say) must guard it
/// with a qntn::Mutex + QNTN_GUARDED_BY so the CI lint job re-checks the
/// lock discipline; the parallel scenario/coverage engines query this
/// provider from many threads at once (tests/sim/parallel_scenario_test).
class ContactPlanTopology final : public sim::TopologyProvider {
 public:
  ContactPlanTopology(const ContactPlan& plan, const sim::NetworkModel& model);

  [[nodiscard]] net::Graph graph_at(double t) const override;

  /// All links realised at time t (static links first, then the active
  /// windows in plan order).
  [[nodiscard]] std::vector<sim::LinkRecord> links_at(double t) const;

  /// Epoch containing t: the largest epoch whose start time is <= t.
  /// Epoch 0 spans everything before the first event (no dynamic links).
  [[nodiscard]] std::size_t epoch_of(double t) const override;

  [[nodiscard]] std::size_t epoch_count() const override {
    return epoch_starts_.size();
  }

  /// Fill (or refresh in place) the snapshot for time t. Same-epoch refresh
  /// re-evaluates only the dynamic edges' transmissivities at t and counts
  /// "plan.epoch_hits"; an epoch change rebuilds the dynamic
  /// tail (reusing the slot's graph storage when the slot is already owned
  /// by this provider) and counts "plan.epoch_builds". Either way
  /// "plan.graph_queries" ticks once, so hits + builds always reconcile
  /// with the query count.
  void snapshot_at(double t, sim::TopologySnapshot& snap) const override;

  /// Union-find over the static links and the active windows of t's
  /// epoch: all_lans_connected(model, graph_at(t)) with no eta evaluated
  /// and no graph built.
  [[nodiscard]] bool lans_connected_at(const sim::NetworkModel& model,
                                       double t) const override;

  /// Start time of epoch e; epoch 0 starts at -infinity. Epoch e covers
  /// [epoch_start(e), epoch_start(e + 1)) (the last one is unbounded).
  [[nodiscard]] double epoch_start(std::size_t epoch) const {
    return epoch_starts_[epoch];
  }

  /// Window ids (indices into plan().windows()) active throughout epoch e,
  /// ascending. Links of the epoch are the static links plus these.
  [[nodiscard]] std::vector<std::size_t> epoch_window_ids(
      std::size_t epoch) const;

  /// Number of open/close events in the timeline (two per window, one for
  /// windows clipped at the horizon).
  [[nodiscard]] std::size_t event_count() const { return event_count_; }

  [[nodiscard]] const ContactPlan& plan() const { return plan_; }

 private:
  /// One epoch boundary's effect on a single window.
  struct TimelineEvent {
    std::uint32_t window = 0;
    bool open = false;
  };

  /// Epochs between consecutive sorted active-set checkpoints. Queries pay
  /// O(stride) event merging on top of the checkpoint copy; the constructor
  /// pays one O(windows) scan per checkpoint. 64 keeps both far below the
  /// cost of the graph work a query does with the result.
  static constexpr std::size_t kCheckpointStride = 64;

  /// Ascending window ids active throughout `epoch`, reconstructed from the
  /// preceding checkpoint plus the events in between (last event wins).
  void active_windows(std::size_t epoch, std::vector<std::size_t>& out) const;

  /// Append the active windows' edges for (epoch, t) onto `graph`, which
  /// must hold exactly the static skeleton. `ids` receives the window ids.
  void append_dynamic_edges(std::size_t epoch, double t, net::Graph& graph,
                            std::vector<std::size_t>& ids) const;

  const ContactPlan& plan_;
  const sim::NetworkModel& model_;
  /// The rebuild's link evaluator under the plan's policy: satellite
  /// positions and budgets at the query time.
  const sim::TopologyBuilder links_;
  std::size_t event_count_ = 0;

  // Epoch partition: epoch e covers [epoch_starts_[e], epoch_starts_[e+1])
  // and applies events_[epoch_event_offsets_[e] .. epoch_event_offsets_[e+1])
  // at its start (epoch 0 applies none). Checkpoint c holds the active set
  // of epoch c * kCheckpointStride in checkpoint_ids_[checkpoint_offsets_[c]
  // .. checkpoint_offsets_[c+1]), ascending.
  std::vector<double> epoch_starts_;
  std::vector<TimelineEvent> events_;
  std::vector<std::size_t> epoch_event_offsets_;
  std::vector<std::size_t> checkpoint_offsets_;
  std::vector<std::uint32_t> checkpoint_ids_;

  // Immutable static skeleton (all nodes + time-invariant links); graph
  // builds start from a copy of it instead of re-adding every node.
  net::Graph skeleton_;
  std::size_t static_edge_count_ = 0;
  /// Per node: the root of its component over the static links alone (a
  /// union-find forest every connectivity query starts from).
  std::vector<net::NodeId> static_roots_;
};

}  // namespace qntn::plan
