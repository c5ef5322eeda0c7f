#pragma once

#include <optional>
#include <vector>

#include "channel/fiber.hpp"
#include "channel/fso.hpp"
#include "common/constants.hpp"
#include "net/graph.hpp"
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

class TopologyProvider;

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
};

class TopologyBuilder final : public TopologyProvider {
 public:
  /// Precomputes static links (fiber LANs, ground-HAP) and the per-class
  /// FSO evaluators. The model must outlive the builder.
  TopologyBuilder(const NetworkModel& model, const LinkPolicy& policy);

  [[nodiscard]] net::Graph graph_at(double t) const override;

  /// All links realised at time t (same information as graph_at's edges).
  [[nodiscard]] std::vector<LinkRecord> links_at(double t) const;

  /// Raw symmetric transmissivity between two nodes at time t before
  /// thresholding; nullopt when the geometry is not visible (below the
  /// elevation mask / Earth-obstructed) or the pair has no channel type.
  [[nodiscard]] std::optional<double> link_transmissivity(net::NodeId a,
                                                          net::NodeId b,
                                                          double t) const;

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

  const NetworkModel& model_;
  LinkPolicy policy_;
  std::vector<LinkRecord> static_links_;

  // One evaluator per link class (altitude bands differ).
  std::optional<channel::FsoLinkEvaluator> ground_sat_;
  std::optional<channel::FsoLinkEvaluator> ground_hap_;
  std::optional<channel::FsoLinkEvaluator> hap_sat_;
  std::optional<channel::FsoLinkEvaluator> sat_sat_;
};

}  // namespace qntn::sim
