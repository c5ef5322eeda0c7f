#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/fiber.hpp"
#include "channel/fso.hpp"
#include "common/constants.hpp"
#include "geo/frames.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "sim/network_model.hpp"

/// \file topology.hpp
/// Builds the time-varying link graph from the physical NetworkModel.
/// Links follow the paper's rules (Section IV): ground-ground fiber links
/// and ground-HAP FSO links are fixed; satellite links (ground-satellite
/// and satellite-satellite) connect and disconnect dynamically whenever the
/// symmetric transmissivity meets the threshold and the geometry is visible
/// (elevation mask pi/9 for atmospheric paths, Earth clearance for
/// inter-satellite paths).

namespace qntn::sim {

enum class LanTopology {
  FullMesh,  ///< every intra-LAN pair gets a fiber link (default)
  Chain,     ///< consecutive nodes in declaration order
  Star,      ///< all nodes linked to the first declared node
};

/// Validated at the TopologyBuilder boundary (both topology providers
/// construct one): the threshold must be finite and in [0, 1], the
/// elevation mask finite and in (0, pi/2), and the fiber attenuation finite
/// and non-negative; anything else throws a PreconditionError naming the
/// field.
struct LinkPolicy {
  channel::FsoConfig fso{};
  double fiber_attenuation_db_per_km = 0.15;  ///< paper Section IV
  double transmissivity_threshold = 0.7;      ///< paper Section IV-A
  double elevation_mask = kPaperElevationMask;  ///< pi/9, paper Section IV
  LanTopology lan_topology = LanTopology::FullMesh;
  bool enable_inter_satellite = true;   ///< FSO channels between satellites
  bool enable_hap_satellite = false;    ///< hybrid extension (off = paper)
  /// Apply the transmissivity threshold to fiber links too (the paper's
  /// LAN spans are tens of metres, so fiber is always far above threshold;
  /// kept separate so stress tests can exercise long fiber runs).
  bool threshold_applies_to_fiber = true;
};

/// A realised link with its transmissivity, for introspection/debugging.
struct LinkRecord {
  net::NodeId a = 0;
  net::NodeId b = 0;
  double transmissivity = 0.0;
};

/// Half-width [m] of the band around isl_threshold_range inside which
/// callers decide by the link budget itself rather than by the bisected
/// crossing (guards the bisection tolerance).
inline constexpr double kIslThresholdBand = 10.0;

/// Largest range [m] at which the satellite-satellite budget
/// `evaluator.symmetric(range, pi/2)` meets `threshold`, by bisection on the
/// budget, which is non-increasing in range (pinned by tests). Returns 0
/// when even a 1 m link fails and +inf when a 1e8 m link still passes. Any
/// range >= isl_threshold_range + kIslThresholdBand fails the threshold, so
/// the contact-plan compiler and the per-step rebuild both skip such pairs
/// without evaluating the budget.
[[nodiscard]] double isl_threshold_range(
    const channel::FsoLinkEvaluator& evaluator, double threshold);

class TopologyProvider;

/// True if all LANs of the model are in one connected component of `graph`.
/// Each LAN is represented by its first node, `lan_nodes(lan).front()`.
[[nodiscard]] bool all_lans_connected(const NetworkModel& model,
                                      const net::Graph& graph);

/// Reusable snapshot slot for TopologyProvider::snapshot_at. Workers of the
/// parallel snapshot engine each own one: an epoch-aware provider that is
/// asked for a time inside the epoch the slot already holds only rewrites
/// the time-varying edge transmissivities in place (zero allocation, no
/// graph rebuild); any other request rebuilds the graph and re-tags the
/// slot. A default-constructed slot is empty and always triggers a build.
struct TopologySnapshot {
  net::Graph graph;
  /// Epoch the graph currently represents; kNoEpoch = none/unknown.
  std::size_t epoch = static_cast<std::size_t>(-1);
  /// Provider that filled the slot; refresh is only valid against the same
  /// provider instance.
  const void* owner = nullptr;
  /// Index of the first time-varying (dynamic) edge in graph.edges();
  /// edges below it are static and never rewritten.
  std::size_t dynamic_base = 0;
  /// Provider-specific tag per dynamic edge (edge dynamic_base + i carries
  /// dynamic_tags[i]); ContactPlanTopology stores the contact-window id so
  /// a same-epoch refresh can re-evaluate each edge without replaying the
  /// epoch's active set.
  std::vector<std::size_t> dynamic_tags;
};

/// Anything that can produce the link graph at a simulation time. The
/// coverage and scenario layers consume this interface so decorators (e.g.
/// the HAP endurance model in endurance.hpp) can reshape the topology
/// without the analysis code knowing.
///
/// Thread safety: all const members must be safe to call concurrently (the
/// snapshot engine fans queries out across a thread pool). Both built-in
/// providers qualify — TopologyBuilder is stateless after construction and
/// ContactPlanTopology serves from immutable precomputed epoch tables.
class TopologyProvider {
 public:
  /// Sentinel for providers without an epoch structure.
  static constexpr std::size_t kNoEpoch = static_cast<std::size_t>(-1);

  virtual ~TopologyProvider() = default;

  /// Snapshot graph at simulation time t [s]. Node ids in the graph equal
  /// NetworkModel node ids.
  [[nodiscard]] virtual net::Graph graph_at(double t) const = 0;

  /// Epoch id of time t. Within one epoch the edge *set* is constant (only
  /// transmissivities vary), so LAN connectivity and eta-independent route
  /// trees can be cached per epoch. Providers without an epoch partition
  /// return kNoEpoch for every t, which disables all epoch caching.
  [[nodiscard]] virtual std::size_t epoch_of(double t) const {
    (void)t;
    return kNoEpoch;
  }

  /// Number of epochs in the provider's partition (0 = no partition; the
  /// snapshot engine then falls back to the serial per-step path).
  [[nodiscard]] virtual std::size_t epoch_count() const { return 0; }

  /// Fill `snap` with the graph at time t, reusing its structure when the
  /// slot already holds the same epoch of the same provider. The default
  /// delegates to graph_at (a full rebuild each call); epoch-aware
  /// providers override it with the in-place eta refresh.
  virtual void snapshot_at(double t, TopologySnapshot& snap) const;

  /// Are all LANs of `model` in one connected component at time t? This is
  /// the whole question coverage (Eq. 6/7) asks; etas do not enter it. The
  /// default answers all_lans_connected(model, graph_at(t)); the built-in
  /// providers override it to answer without building a graph, with the
  /// same result (DESIGN.md §9).
  [[nodiscard]] virtual bool lans_connected_at(const NetworkModel& model,
                                               double t) const;
};

/// The per-source shortest-path trees of one serving engine (single-shot
/// and traffic) over the graph in the engine's snapshot slot: the edge
/// costs priced once per graph, the graph's connected components, and one
/// tree per source node, indexed by node id and built on first use into
/// reused storage — net::hop_count_tree under HopCount, else
/// net::bellman_ford_tree. A tree is valid while its stamp equals the
/// table's generation, so dropping them all is one increment. Not
/// thread-safe: each engine owns one.
class SourceTreeTable {
 public:
  explicit SourceTreeTable(net::CostMetric metric) : metric_(metric) {}

  /// Snapshot `topology` at time t into `snap`, keeping the trees built on
  /// the slot's previous graph exactly when they still route the new one.
  /// A refresh inside one known epoch of the same provider only re-weights
  /// edges, so the trees survive it when the metric cannot see the weights
  /// (eta-independent); any other refresh resets the table to the new
  /// graph. This is the one place the reuse rule is written.
  void refresh(const TopologyProvider& topology, double t,
               TopologySnapshot& snap);

  /// Drop every tree, price `graph`'s edges and label its components: the
  /// table now serves `graph`.
  void reset(const net::Graph& graph);

  /// Are a and b in one connected component of the current graph? Every
  /// metric prices every edge finitely, so this is exactly
  /// `tree(graph, a).cost[b] < inf`, without building the tree.
  [[nodiscard]] bool linked(net::NodeId a, net::NodeId b) const {
    return component_[a] == component_[b];
  }

  /// The tree rooted at `source` over `graph`, which must be the graph of
  /// the last refresh or reset; built on first use.
  [[nodiscard]] const net::ShortestPathTree& tree(const net::Graph& graph,
                                                  net::NodeId source);

  /// Edge costs of the current graph under the metric, parallel to its
  /// edges().
  [[nodiscard]] const std::vector<double>& edge_costs() const {
    return edge_costs_;
  }

 private:
  net::CostMetric metric_;
  std::vector<double> edge_costs_;
  std::vector<std::size_t> component_;  ///< component label per node
  net::HopTreeScratch hop_;             ///< half-edge index, HopCount only
  std::vector<net::ShortestPathTree> trees_;  ///< indexed by source node
  std::vector<std::uint32_t> stamps_;         ///< tree valid iff == generation_
  std::uint32_t generation_ = 0;
};

class TopologyBuilder final : public TopologyProvider {
 public:
  /// Validates the policy and precomputes static links (fiber LANs,
  /// ground-HAP), the per-class FSO evaluators, the ENU frames of the fixed
  /// ground and HAP sites, and the ISL skip range. The model must outlive
  /// the builder.
  TopologyBuilder(const NetworkModel& model, const LinkPolicy& policy);

  [[nodiscard]] net::Graph graph_at(double t) const override;

  /// All links realised at time t (same information as graph_at's edges):
  /// static links, then per satellite its ground and HAP links, then
  /// satellite pairs (i < j). Pairs that provably fail are skipped before
  /// any link budget is evaluated (DESIGN.md §9).
  [[nodiscard]] std::vector<LinkRecord> links_at(double t) const;

  /// Breadth-first search from LAN 0's representative that follows static
  /// links before it evaluates any dynamic one, evaluates a dynamic link
  /// only towards a node not yet reached (same rules and calls as
  /// links_at), and stops as soon as every LAN representative is reached.
  /// Counts "sim.connectivity_link_budgets".
  [[nodiscard]] bool lans_connected_at(const NetworkModel& model,
                                       double t) const override;

  /// Raw symmetric transmissivity between two nodes at time t before
  /// thresholding; nullopt when the geometry is not visible (below the
  /// elevation mask / Earth-obstructed) or the pair has no channel type.
  [[nodiscard]] std::optional<double> link_transmissivity(net::NodeId a,
                                                          net::NodeId b,
                                                          double t) const;

  /// ECEF position of every satellite at t, in satellite_ids() order: the
  /// positions links_at evaluates the dynamic links at.
  void satellite_positions(double t, std::vector<Vec3>& out) const;

  /// Transmissivity of the dynamic link a-b (site-satellite or satellite
  /// pair, either order) with the satellites at `sat_pos`
  /// (satellite_positions): the value links_at gives the link when it is
  /// realised, from the same calls, with no visibility or threshold
  /// decision. The caller has decided that the link exists (the contact
  /// plan's windows); the pair's class must have a channel under the
  /// policy, and a site link needs the satellite above the site's horizon.
  [[nodiscard]] double dynamic_eta(net::NodeId a, net::NodeId b,
                                   const std::vector<Vec3>& sat_pos) const;

  [[nodiscard]] const LinkPolicy& policy() const { return policy_; }

  /// Time-invariant links (intra-LAN fiber plus ground-HAP FSO), already
  /// thresholded. The contact-plan compiler copies these verbatim.
  [[nodiscard]] const std::vector<LinkRecord>& static_links() const {
    return static_links_;
  }

  /// Cached per-class evaluator for a node-kind pair, or nullptr when the
  /// class has no FSO channel (missing nodes / disabled by policy). Exposed
  /// so the contact-plan compiler evaluates the exact same link budgets the
  /// per-step rebuild does.
  [[nodiscard]] const channel::FsoLinkEvaluator* evaluator(NodeKind a,
                                                           NodeKind b) const;

 private:
  void build_static_links();

  // The budgets of the two dynamic link classes, with no decision: what
  // the rules below return for a realised link, and what dynamic_eta
  // returns for a link the caller has decided on.

  /// Site-satellite budget at the look angles through the site's frame.
  [[nodiscard]] static double site_budget(
      const channel::FsoLinkEvaluator& evaluator, const geo::AzElRange& look) {
    return evaluator.symmetric(look.range, look.elevation);
  }

  /// Satellite-pair budget at `range` (requires sat_sat_).
  [[nodiscard]] double isl_budget(double range) const {
    return sat_sat_->symmetric(range, kPi / 2.0);
  }

  // The dynamic link rules, shared by links_at and lans_connected_at. Each
  // returns the eta of a realised link and nullopt otherwise, and adds the
  // link budgets it evaluates to `budgets`.

  /// Site-satellite link: horizon, then mask, then budget >= threshold.
  [[nodiscard]] std::optional<double> site_link(
      const geo::TopocentricFrame& frame,
      const channel::FsoLinkEvaluator& evaluator, const Vec3& sat,
      std::size_t& budgets) const;

  /// Satellite pair (requires sat_sat_): skip range, then line of sight,
  /// then budget >= threshold. `lo` is the lower-index satellite.
  [[nodiscard]] std::optional<double> isl_link(const Vec3& lo, const Vec3& hi,
                                               std::size_t& budgets) const;

  const NetworkModel& model_;
  LinkPolicy policy_;
  std::vector<LinkRecord> static_links_;

  // Fixed sites: ground nodes in LAN order, then HAPs, each with its ENU
  // frame (built once; look_angles through it is bit-identical to the
  // Geodetic overload).
  std::vector<net::NodeId> ground_ids_;
  std::vector<geo::TopocentricFrame> ground_frames_;
  std::vector<geo::TopocentricFrame> hap_frames_;
  /// Per node: its index in its class list (ground_ids_, hap_ids(),
  /// satellite_ids()).
  std::vector<std::size_t> class_index_;
  /// static_links_ as adjacency lists.
  std::vector<std::vector<net::NodeId>> static_adjacency_;
  /// Satellite pairs at or beyond this range fail the threshold
  /// (isl_threshold_range + kIslThresholdBand; unused without ISLs).
  double isl_skip_range_ = 0.0;

  // One evaluator per link class (altitude bands differ).
  std::optional<channel::FsoLinkEvaluator> ground_sat_;
  std::optional<channel::FsoLinkEvaluator> ground_hap_;
  std::optional<channel::FsoLinkEvaluator> hap_sat_;
  std::optional<channel::FsoLinkEvaluator> sat_sat_;
};

}  // namespace qntn::sim
