#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "net/graph.hpp"
#include "sim/network_model.hpp"
#include "sim/topology.hpp"

/// \file contact_plan.hpp
/// Contact-plan compilation: the control-plane half of the simulator.
///
/// The per-step TopologyBuilder re-evaluates every O(N^2) FSO link budget
/// at each of the day's 2880 samples, even though satellite links are
/// piecewise — a link exists only inside AOS/LOS-style windows that pass
/// prediction can enumerate up front. compile_contact_plan does that
/// enumeration once: for every dynamic node pair it finds the
/// visibility-and-threshold windows (a scan of every grid point through
/// exact geometric screens — below the horizon for site passes, squared
/// range outside the threshold band for ISLs — with boundaries refined by
/// bisection to ~1 ms on the preceding grid step, clipped to
/// [0, horizon]). The plan stores *when* each link is up and nothing
/// else: a link's transmissivity at time t comes from the geometry at t
/// (ContactPlanTopology asks TopologyBuilder::dynamic_eta). The resulting
/// ContactPlan is immutable; ContactPlanTopology (contact_topology.hpp)
/// serves graph_at(t) from it by interval lookup, and the session scheduler
/// (session_scheduler.hpp) admits entanglement requests against it. This
/// mirrors how contact-plan-driven space networks (Hu et al., QuESat)
/// scale: topology queries cost per *link-state change*, not per step
/// times N^2.

namespace qntn {
class ThreadPool;
}  // namespace qntn

namespace qntn::plan {

/// One contact window: node pair `a`-`b` is linkable (visible and above
/// the transmissivity threshold) throughout [start, end). For a site link
/// `a` is the site; for a satellite pair `a` is the lower satellite index.
struct ContactWindow {
  net::NodeId a = 0;
  net::NodeId b = 0;
  double start = 0.0;  ///< [s], clipped to >= 0
  double end = 0.0;    ///< [s], clipped to <= horizon

  [[nodiscard]] double duration() const { return end - start; }
};

// Windows are plain boundaries: per-window heap storage (sampled profiles)
// cost the plan 17 MiB at n = 108 and must not come back.
static_assert(std::is_trivially_copyable_v<ContactWindow>);

struct ContactPlanOptions {
  double horizon = 86'400.0;  ///< [s]; the paper evaluates one day
  /// Scan grid [s]. Must match the consumer's sampling step for the plan
  /// to reproduce the per-step rebuild exactly at grid times.
  double step = 30.0;
};

/// Aggregate statistics of a compiled plan (for reports and the CLI).
struct ContactPlanStats {
  std::size_t window_count = 0;
  double total_contact = 0.0;         ///< sum of window durations [s]
  double mean_window_duration = 0.0;  ///< [s]
};

/// Immutable compiled contact plan: every dynamic link window over the
/// horizon plus the time-invariant links, for one NetworkModel/LinkPolicy.
class ContactPlan {
 public:
  ContactPlan() = default;
  ContactPlan(std::vector<ContactWindow> windows,
              std::vector<sim::LinkRecord> static_links, std::size_t node_count,
              double horizon, const sim::LinkPolicy& policy);

  /// Dynamic-link windows sorted by start time.
  [[nodiscard]] const std::vector<ContactWindow>& windows() const {
    return windows_;
  }
  /// Time-invariant links (intra-LAN fiber, ground-HAP FSO).
  [[nodiscard]] const std::vector<sim::LinkRecord>& static_links() const {
    return static_links_;
  }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] double horizon() const { return horizon_; }
  /// The link policy the windows were compiled under; query-time
  /// transmissivities are evaluated under the same one.
  [[nodiscard]] const sim::LinkPolicy& policy() const { return policy_; }

  /// Windows of one node pair, sorted by start (order-insensitive lookup).
  [[nodiscard]] std::vector<const ContactWindow*> pair_windows(
      net::NodeId a, net::NodeId b) const;

  [[nodiscard]] ContactPlanStats stats() const;

 private:
  std::vector<ContactWindow> windows_;
  std::vector<sim::LinkRecord> static_links_;
  std::size_t node_count_ = 0;
  double horizon_ = 0.0;
  sim::LinkPolicy policy_{};
};

/// Compile the contact plan for `model` under `policy`. Evaluates the same
/// per-class link budgets as sim::TopologyBuilder (shared evaluators), so
/// at every grid time t = k * options.step the plan's link set equals the
/// per-step rebuild's.
///
/// `pool` (optional, borrowed) fans the per-satellite scans out across
/// workers. The fan-out is deterministic: each task appends windows to its
/// own buffer and the buffers are spliced in the serial task order, so the
/// compiled plan is byte-identical for any thread count (including none).
[[nodiscard]] ContactPlan compile_contact_plan(
    const sim::NetworkModel& model, const sim::LinkPolicy& policy,
    const ContactPlanOptions& options = {}, ThreadPool* pool = nullptr);

}  // namespace qntn::plan
