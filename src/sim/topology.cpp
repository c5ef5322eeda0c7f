#include "sim/topology.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "geo/frames.hpp"
#include "obs/registry.hpp"

namespace qntn::sim {

namespace {

/// All nodes of one class must share a terminal configuration so the
/// per-class evaluator cache is exact.
void require_uniform_terminals(const NetworkModel& model, NodeKind kind) {
  const channel::OpticalTerminal* first = nullptr;
  for (const Node& node : model.nodes()) {
    if (node.kind != kind) continue;
    if (first == nullptr) {
      first = &node.terminal;
      continue;
    }
    QNTN_REQUIRE(node.terminal.aperture_radius == first->aperture_radius &&
                     node.terminal.pointing_jitter == first->pointing_jitter,
                 "all nodes of a class must share one terminal config");
  }
}

/// Representative terminal of a node class (first node of that kind).
std::optional<channel::OpticalTerminal> class_terminal(const NetworkModel& model,
                                                       NodeKind kind) {
  for (const Node& node : model.nodes()) {
    if (node.kind == kind) return node.terminal;
  }
  return std::nullopt;
}

/// Reject policies the link rules cannot honour, naming the field (and its
/// config key). A mask above zero is also what makes the below-horizon skip
/// in links_at exact.
void validate_policy(const LinkPolicy& policy) {
  const double threshold = policy.transmissivity_threshold;
  QNTN_REQUIRE(std::isfinite(threshold) && threshold >= 0.0 && threshold <= 1.0,
               "link policy: transmissivity_threshold must be finite and in "
               "[0, 1]");
  const double mask = policy.elevation_mask;
  QNTN_REQUIRE(std::isfinite(mask) && mask > 0.0 && mask < kPi / 2.0,
               "link policy: elevation_mask (config elevation_mask_deg) must "
               "be finite and in (0, 90) deg");
  const double fiber = policy.fiber_attenuation_db_per_km;
  QNTN_REQUIRE(std::isfinite(fiber) && fiber >= 0.0,
               "link policy: fiber_attenuation_db_per_km must be finite and "
               "non-negative");
}

}  // namespace

double isl_threshold_range(const channel::FsoLinkEvaluator& evaluator,
                           double threshold) {
  double lo = 1.0;
  if (evaluator.symmetric(lo, kPi / 2.0) < threshold) return 0.0;
  double hi = 1.0e8;  // far beyond any LEO pair separation
  if (evaluator.symmetric(hi, kPi / 2.0) >= threshold) {
    return std::numeric_limits<double>::infinity();
  }
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (evaluator.symmetric(mid, kPi / 2.0) >= threshold) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool all_lans_connected(const NetworkModel& model, const net::Graph& graph) {
  QNTN_REQUIRE(model.lan_count() >= 1, "model has no LANs");
  const std::vector<std::size_t> comp = graph.components();
  const std::size_t reference = comp[model.lan_nodes(0).front()];
  for (std::size_t lan = 1; lan < model.lan_count(); ++lan) {
    if (comp[model.lan_nodes(lan).front()] != reference) return false;
  }
  // LANs are internally connected by construction (fiber mesh/chain/star)
  // unless the fiber threshold drops a link; the representative node stands
  // for its LAN either way.
  return true;
}

void TopologyProvider::snapshot_at(double t, TopologySnapshot& snap) const {
  snap.graph = graph_at(t);
  snap.epoch = kNoEpoch;
  snap.owner = this;
  snap.dynamic_base = snap.graph.edge_count();
}

bool TopologyProvider::lans_connected_at(const NetworkModel& model,
                                         double t) const {
  return all_lans_connected(model, graph_at(t));
}

void SourceTreeTable::refresh(const TopologyProvider& topology, double t,
                              TopologySnapshot& snap) {
  const std::size_t prev_epoch = snap.epoch;
  const void* prev_owner = snap.owner;
  topology.snapshot_at(t, snap);
  const bool trees_route = net::metric_is_eta_independent(metric_) &&
                           snap.epoch != TopologyProvider::kNoEpoch &&
                           snap.epoch == prev_epoch &&
                           snap.owner == prev_owner;
  if (!trees_route) reset(snap.graph);
}

void SourceTreeTable::reset(const net::Graph& graph) {
  ++generation_;
  const std::size_t n = graph.node_count();
  trees_.resize(n);
  stamps_.resize(n, 0);
  net::compute_edge_costs(graph, metric_, edge_costs_);
  if (metric_ == net::CostMetric::HopCount) net::index_half_edges(graph, hop_);
  component_ = graph.components();
}

const net::ShortestPathTree& SourceTreeTable::tree(const net::Graph& graph,
                                                   net::NodeId source) {
  if (stamps_[source] != generation_) {
    if (metric_ == net::CostMetric::HopCount) {
      net::hop_count_tree(graph, source, hop_, trees_[source]);
    } else {
      net::bellman_ford_tree(graph, source, edge_costs_, trees_[source]);
    }
    stamps_[source] = generation_;
  }
  return trees_[source];
}

TopologyBuilder::TopologyBuilder(const NetworkModel& model,
                                 const LinkPolicy& policy)
    : model_(model), policy_(policy) {
  validate_policy(policy_);
  require_uniform_terminals(model_, NodeKind::Ground);
  require_uniform_terminals(model_, NodeKind::Hap);
  require_uniform_terminals(model_, NodeKind::Satellite);

  const auto ground = class_terminal(model_, NodeKind::Ground);
  const auto hap = class_terminal(model_, NodeKind::Hap);
  const auto sat = class_terminal(model_, NodeKind::Satellite);

  // Nominal altitudes for the per-class altitude bands.
  const double hap_alt = model_.hap_ids().empty()
                             ? 0.0
                             : model_.node(model_.hap_ids().front()).position.altitude;
  double sat_alt = 0.0;
  if (!model_.satellite_ids().empty()) {
    sat_alt = model_.endpoint_at(model_.satellite_ids().front(), 0.0)
                  .geodetic.altitude;
  }

  if (ground && sat) {
    ground_sat_.emplace(policy_.fso, *ground, *sat, 0.0, sat_alt);
  }
  if (ground && hap) {
    ground_hap_.emplace(policy_.fso, *ground, *hap, 0.0, hap_alt);
  }
  if (hap && sat && policy_.enable_hap_satellite) {
    hap_sat_.emplace(policy_.fso, *hap, *sat, hap_alt, sat_alt);
  }
  if (sat && policy_.enable_inter_satellite) {
    sat_sat_.emplace(policy_.fso, *sat, *sat, sat_alt, sat_alt);
    isl_skip_range_ =
        isl_threshold_range(*sat_sat_, policy_.transmissivity_threshold) +
        kIslThresholdBand;
  }

  class_index_.resize(model_.node_count());
  for (std::size_t lan = 0; lan < model_.lan_count(); ++lan) {
    for (const net::NodeId g : model_.lan_nodes(lan)) {
      class_index_[g] = ground_ids_.size();
      ground_ids_.push_back(g);
      ground_frames_.emplace_back(model_.node(g).position);
    }
  }
  for (std::size_t h = 0; h < model_.hap_ids().size(); ++h) {
    class_index_[model_.hap_ids()[h]] = h;
    hap_frames_.emplace_back(model_.node(model_.hap_ids()[h]).position);
  }
  for (std::size_t s = 0; s < model_.satellite_ids().size(); ++s) {
    class_index_[model_.satellite_ids()[s]] = s;
  }

  build_static_links();
  static_adjacency_.resize(model_.node_count());
  for (const LinkRecord& link : static_links_) {
    static_adjacency_[link.a].push_back(link.b);
    static_adjacency_[link.b].push_back(link.a);
  }
}

void TopologyBuilder::build_static_links() {
  // Fiber links inside each LAN.
  for (std::size_t lan = 0; lan < model_.lan_count(); ++lan) {
    const std::vector<net::NodeId>& ids = model_.lan_nodes(lan);
    auto add_fiber = [this](net::NodeId a, net::NodeId b) {
      const Vec3 pa = model_.endpoint_at(a, 0.0).ecef;
      const Vec3 pb = model_.endpoint_at(b, 0.0).ecef;
      const channel::FiberChannel fiber{distance(pa, pb),
                                        policy_.fiber_attenuation_db_per_km};
      const double eta = fiber.transmissivity();
      if (policy_.threshold_applies_to_fiber &&
          eta < policy_.transmissivity_threshold) {
        return;
      }
      static_links_.push_back({a, b, eta});
    };
    switch (policy_.lan_topology) {
      case LanTopology::FullMesh:
        for (std::size_t i = 0; i < ids.size(); ++i) {
          for (std::size_t j = i + 1; j < ids.size(); ++j) {
            add_fiber(ids[i], ids[j]);
          }
        }
        break;
      case LanTopology::Chain:
        for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
          add_fiber(ids[i], ids[i + 1]);
        }
        break;
      case LanTopology::Star:
        for (std::size_t i = 1; i < ids.size(); ++i) {
          add_fiber(ids[0], ids[i]);
        }
        break;
    }
  }

  // Ground-HAP FSO links are fixed (both endpoints hover/stand still).
  if (ground_hap_) {
    // Endpoints are loop-invariant: hoist the HAP positions out of the
    // per-LAN sweep and the ground position out of the per-HAP sweep.
    std::vector<channel::Endpoint> hap_pos;
    hap_pos.reserve(model_.hap_ids().size());
    for (const net::NodeId h : model_.hap_ids()) {
      hap_pos.push_back(model_.endpoint_at(h, 0.0));
    }
    for (std::size_t lan = 0; lan < model_.lan_count(); ++lan) {
      for (const net::NodeId g : model_.lan_nodes(lan)) {
        const channel::Endpoint eg = model_.endpoint_at(g, 0.0);
        for (std::size_t hi = 0; hi < hap_pos.size(); ++hi) {
          const net::NodeId h = model_.hap_ids()[hi];
          const channel::Endpoint& eh = hap_pos[hi];
          if (!channel::fso_link_visible(eg, eh, policy_.elevation_mask)) continue;
          const channel::FsoGeometry geom = channel::make_fso_geometry(eg, eh);
          const double eta = ground_hap_->symmetric(geom.range, geom.elevation);
          if (eta >= policy_.transmissivity_threshold) {
            static_links_.push_back({g, h, eta});
          }
        }
      }
    }
  }
}

net::Graph TopologyBuilder::graph_at(double t) const {
  net::Graph graph;
  for (const Node& node : model_.nodes()) {
    graph.add_node(node.name);
  }
  for (const LinkRecord& link : links_at(t)) {
    graph.add_edge(link.a, link.b, link.transmissivity);
  }
  return graph;
}

// Both link rules run in the innermost loops of links_at and of the
// connectivity search (every satellite pair, every site per satellite),
// where GCC does not inline them on its own; a call per pair would cost
// more than the range test that rejects most pairs.
[[gnu::always_inline]] inline std::optional<double>
TopologyBuilder::site_link(
    const geo::TopocentricFrame& frame,
    const channel::FsoLinkEvaluator& evaluator, const Vec3& sat,
    std::size_t& budgets) const {
  // At or below the horizon: elevation = atan2(up <= 0, .) <= 0 < mask.
  if (frame.up(sat - frame.origin) <= 0.0) return std::nullopt;
  const geo::AzElRange look = geo::look_angles(frame, sat);
  if (look.elevation < policy_.elevation_mask) return std::nullopt;
  const double eta = site_budget(evaluator, look);
  ++budgets;
  if (eta < policy_.transmissivity_threshold) return std::nullopt;
  return eta;
}

[[gnu::always_inline]] inline std::optional<double>
TopologyBuilder::isl_link(const Vec3& lo, const Vec3& hi,
                          std::size_t& budgets) const {
  // Range first (pairs beyond the threshold range fail the monotone
  // budget), then Earth/atmosphere clearance, then the threshold.
  const double range = distance(lo, hi);
  if (range >= isl_skip_range_) return std::nullopt;
  if (!geo::line_of_sight(lo, hi, kEarthRadius + kAtmosphereTopAltitude)) {
    return std::nullopt;
  }
  const double eta = isl_budget(range);
  ++budgets;
  if (eta < policy_.transmissivity_threshold) return std::nullopt;
  return eta;
}

void TopologyBuilder::satellite_positions(double t,
                                          std::vector<Vec3>& out) const {
  // The link rules never read a satellite's geodetic position, so take the
  // ECEF positions straight from the ephemerides.
  out.clear();
  out.reserve(model_.satellite_ids().size());
  for (const net::NodeId s : model_.satellite_ids()) {
    out.push_back(model_.ephemeris(s).position_ecef(t));
  }
}

double TopologyBuilder::dynamic_eta(net::NodeId a, net::NodeId b,
                                    const std::vector<Vec3>& sat_pos) const {
  if (model_.node(a).kind == NodeKind::Satellite &&
      model_.node(b).kind != NodeKind::Satellite) {
    std::swap(a, b);
  }
  const NodeKind site_kind = model_.node(a).kind;
  const Vec3& sat = sat_pos[class_index_[b]];
  if (site_kind == NodeKind::Satellite) {
    QNTN_REQUIRE(sat_sat_.has_value(), "no inter-satellite channel");
    // Lower satellite index first, as links_at evaluates the pair.
    const Vec3& other = sat_pos[class_index_[a]];
    return class_index_[a] < class_index_[b] ? isl_budget(distance(other, sat))
                                             : isl_budget(distance(sat, other));
  }
  const bool ground = site_kind == NodeKind::Ground;
  const auto& evaluator = ground ? ground_sat_ : hap_sat_;
  QNTN_REQUIRE(evaluator.has_value(), "no site-satellite channel");
  const geo::TopocentricFrame& frame = ground
                                           ? ground_frames_[class_index_[a]]
                                           : hap_frames_[class_index_[a]];
  return site_budget(*evaluator, geo::look_angles(frame, sat));
}

std::vector<LinkRecord> TopologyBuilder::links_at(double t) const {
  obs::count("sim.rebuild_queries");
  std::vector<LinkRecord> links = static_links_;

  const std::vector<net::NodeId>& sats = model_.satellite_ids();
  std::vector<Vec3> sat_pos;
  satellite_positions(t, sat_pos);

  // Ground-satellite and HAP-satellite links.
  std::size_t budgets = 0;
  const auto add_site_links =
      [&](const std::vector<geo::TopocentricFrame>& frames,
          const std::vector<net::NodeId>& ids,
          const channel::FsoLinkEvaluator& evaluator, std::size_t si) {
        for (std::size_t k = 0; k < frames.size(); ++k) {
          if (const auto eta =
                  site_link(frames[k], evaluator, sat_pos[si], budgets)) {
            links.push_back({ids[k], sats[si], *eta});
          }
        }
      };
  for (std::size_t si = 0; si < sats.size(); ++si) {
    if (ground_sat_) {
      add_site_links(ground_frames_, ground_ids_, *ground_sat_, si);
    }
    if (hap_sat_) {
      add_site_links(hap_frames_, model_.hap_ids(), *hap_sat_, si);
    }
  }

  // Inter-satellite links.
  if (sat_sat_) {
    for (std::size_t i = 0; i < sats.size(); ++i) {
      for (std::size_t j = i + 1; j < sats.size(); ++j) {
        if (const auto eta = isl_link(sat_pos[i], sat_pos[j], budgets)) {
          links.push_back({sats[i], sats[j], *eta});
        }
      }
    }
  }
  obs::count("sim.rebuild_link_budgets", budgets);
  return links;
}

bool TopologyBuilder::lans_connected_at(const NetworkModel& model,
                                        double t) const {
  QNTN_REQUIRE(model.lan_count() >= 1, "model has no LANs");
  QNTN_REQUIRE(model.node_count() == model_.node_count(),
               "connectivity query against a different model");
  std::vector<char> reached(model_.node_count(), 0);
  std::vector<net::NodeId> queue;
  std::size_t unreached = model.lan_count();
  // Marks v reached; true once the last LAN representative is.
  const auto reach = [&](net::NodeId v) {
    reached[v] = 1;
    queue.push_back(v);
    const Node& node = model.node(v);
    return node.kind == NodeKind::Ground &&
           model.lan_nodes(node.lan).front() == v && --unreached == 0;
  };
  if (reach(model.lan_nodes(0).front())) return true;  // a single LAN

  const std::vector<net::NodeId>& sats = model_.satellite_ids();
  const std::vector<net::NodeId>& haps = model_.hap_ids();
  std::vector<Vec3> sat_pos;
  satellite_positions(t, sat_pos);

  // Each dynamic link is evaluated from the endpoint reached first and only
  // while the other is unreached: a link to a reached node reaches nothing
  // new, so skipping it leaves the reached set, and the answer, unchanged.
  std::size_t budgets = 0;
  const auto expand_dynamic = [&](net::NodeId u) {
    const std::size_t slot = class_index_[u];
    const NodeKind kind = model_.node(u).kind;
    if (kind != NodeKind::Satellite) {
      const bool ground = kind == NodeKind::Ground;
      const auto& evaluator = ground ? ground_sat_ : hap_sat_;
      if (!evaluator) return false;
      const geo::TopocentricFrame& frame =
          ground ? ground_frames_[slot] : hap_frames_[slot];
      for (std::size_t si = 0; si < sats.size(); ++si) {
        if (reached[sats[si]] == 0 &&
            site_link(frame, *evaluator, sat_pos[si], budgets) &&
            reach(sats[si])) {
          return true;
        }
      }
      return false;
    }
    const Vec3& pos = sat_pos[slot];
    if (ground_sat_) {
      for (std::size_t k = 0; k < ground_ids_.size(); ++k) {
        if (reached[ground_ids_[k]] == 0 &&
            site_link(ground_frames_[k], *ground_sat_, pos, budgets) &&
            reach(ground_ids_[k])) {
          return true;
        }
      }
    }
    if (hap_sat_) {
      for (std::size_t h = 0; h < haps.size(); ++h) {
        if (reached[haps[h]] == 0 &&
            site_link(hap_frames_[h], *hap_sat_, pos, budgets) &&
            reach(haps[h])) {
          return true;
        }
      }
    }
    if (sat_sat_) {
      for (std::size_t sj = 0; sj < sats.size(); ++sj) {
        if (reached[sats[sj]] != 0) continue;
        // Lower index first, as links_at evaluates the pair.
        const bool forward = slot < sj;
        if (isl_link(forward ? pos : sat_pos[sj], forward ? sat_pos[sj] : pos,
                     budgets) &&
            reach(sats[sj])) {
          return true;
        }
      }
    }
    return false;
  };

  // Static links are followed before any dynamic link is evaluated: they
  // cost nothing, and where they join the LANs on their own (a HAP in view
  // of every LAN) no budget is evaluated at all. Both cursors walk the one
  // queue, so every reached node is expanded both ways.
  bool joined = false;
  std::size_t next_static = 0;
  std::size_t next_dynamic = 0;
  while (!joined && next_dynamic < queue.size()) {
    if (next_static < queue.size()) {
      for (const net::NodeId v : static_adjacency_[queue[next_static]]) {
        if (reached[v] == 0 && reach(v)) {
          joined = true;
          break;
        }
      }
      ++next_static;
    } else {
      joined = expand_dynamic(queue[next_dynamic++]);
    }
  }
  obs::count("sim.connectivity_link_budgets", budgets);
  return joined;
}

const channel::FsoLinkEvaluator* TopologyBuilder::evaluator(NodeKind a,
                                                            NodeKind b) const {
  auto kinds = [&](NodeKind x, NodeKind y) {
    return (a == x && b == y) || (a == y && b == x);
  };
  if (kinds(NodeKind::Ground, NodeKind::Satellite)) {
    return ground_sat_ ? &*ground_sat_ : nullptr;
  }
  if (kinds(NodeKind::Ground, NodeKind::Hap)) {
    return ground_hap_ ? &*ground_hap_ : nullptr;
  }
  if (kinds(NodeKind::Hap, NodeKind::Satellite)) {
    return hap_sat_ ? &*hap_sat_ : nullptr;
  }
  if (kinds(NodeKind::Satellite, NodeKind::Satellite)) {
    return sat_sat_ ? &*sat_sat_ : nullptr;
  }
  return nullptr;
}

std::optional<double> TopologyBuilder::link_transmissivity(net::NodeId a,
                                                           net::NodeId b,
                                                           double t) const {
  QNTN_REQUIRE(a < model_.node_count() && b < model_.node_count(),
               "node out of range");
  QNTN_REQUIRE(a != b, "no self links");
  const Node& na = model_.node(a);
  const Node& nb = model_.node(b);
  const channel::Endpoint ea = model_.endpoint_at(a, t);
  const channel::Endpoint eb = model_.endpoint_at(b, t);

  if (na.kind == NodeKind::Ground && nb.kind == NodeKind::Ground) {
    if (na.lan != nb.lan) return std::nullopt;  // no inter-city fiber (paper)
    const channel::FiberChannel fiber{distance(ea.ecef, eb.ecef),
                                      policy_.fiber_attenuation_db_per_km};
    return fiber.transmissivity();
  }
  // Dispatch through the evaluator() member — a previous version shadowed
  // it with a local of the same name that re-implemented this table, and
  // the two copies could drift.
  const channel::FsoLinkEvaluator* fso = evaluator(na.kind, nb.kind);
  if (fso == nullptr) return std::nullopt;

  if (na.kind == NodeKind::Satellite && nb.kind == NodeKind::Satellite) {
    if (!geo::line_of_sight(ea.ecef, eb.ecef,
                            kEarthRadius + kAtmosphereTopAltitude)) {
      return std::nullopt;
    }
    return fso->symmetric(distance(ea.ecef, eb.ecef), kPi / 2.0);
  }
  if (!channel::fso_link_visible(ea, eb, policy_.elevation_mask)) {
    return std::nullopt;
  }
  const channel::FsoGeometry geom = channel::make_fso_geometry(ea, eb);
  return fso->symmetric(geom.range, geom.elevation);
}

}  // namespace qntn::sim
