#include "net/kpaths.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace qntn::net {

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Best transmissivity over the parallel u-v edges (the routers relax every
/// one of them, so the cheapest is the one a path uses).
double best_eta(const Graph& graph, NodeId u, NodeId v) {
  double best = 0.0;
  for (const Adjacency& adj : graph.neighbors(u)) {
    if (adj.to == v) best = std::max(best, adj.transmissivity);
  }
  return best;
}

/// End-to-end transmissivity of a node path, hop by hop in path order.
double path_transmissivity(const Graph& graph, const std::vector<NodeId>& path) {
  double eta = 1.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    eta *= best_eta(graph, path[i], path[i + 1]);
  }
  return eta;
}

/// Dijkstra on `graph` with some nodes and edges masked out. Edges are
/// identified by their endpoints plus transmissivity (sufficient here:
/// masking removes all parallel edges of a spur, which only prunes
/// duplicates of the same path prefix).
std::optional<Route> masked_dijkstra(const Graph& graph, NodeId src, NodeId dst,
                                     CostMetric metric,
                                     const std::set<NodeId>& banned_nodes,
                                     const std::set<std::pair<NodeId, NodeId>>&
                                         banned_edges) {
  const std::size_t n = graph.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(n, kInf);
  std::vector<std::optional<NodeId>> previous(n);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  if (banned_nodes.count(src) != 0 || banned_nodes.count(dst) != 0) {
    return std::nullopt;
  }
  obs::count("net.masked_searches");
  cost[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [c, u] = heap.top();
    heap.pop();
    if (c > cost[u]) continue;
    if (u == dst) break;
    for (const Adjacency& adj : graph.neighbors(u)) {
      if (banned_nodes.count(adj.to) != 0) continue;
      if (banned_edges.count(std::make_pair(std::min(u, adj.to),
                                            std::max(u, adj.to))) != 0) {
        continue;
      }
      const double nc = c + edge_cost(adj.transmissivity, metric);
      if (nc < cost[adj.to]) {
        cost[adj.to] = nc;
        previous[adj.to] = u;
        heap.emplace(nc, adj.to);
      }
    }
  }
  if (cost[dst] == kInf) return std::nullopt;
  Route out;
  NodeId cur = dst;
  out.path.push_back(cur);
  while (cur != src) {
    cur = *previous[cur];
    out.path.push_back(cur);
  }
  std::reverse(out.path.begin(), out.path.end());
  out.cost = cost[dst];
  out.transmissivity = path_transmissivity(graph, out.path);
  return out;
}

}  // namespace

std::vector<Route> k_shortest_paths(const Graph& graph, NodeId src, NodeId dst,
                                    std::size_t k, CostMetric metric) {
  QNTN_REQUIRE(src < graph.node_count() && dst < graph.node_count(),
               "node out of range");
  QNTN_REQUIRE(k > 0, "k must be positive");
  std::vector<Route> accepted;
  const auto first = masked_dijkstra(graph, src, dst, metric, {}, {});
  if (!first) return accepted;
  accepted.push_back(*first);

  // Candidate pool ordered by cost.
  auto cmp = [](const Route& a, const Route& b) { return a.cost > b.cost; };
  std::vector<Route> candidates;

  while (accepted.size() < k) {
    const Route& last = accepted.back();
    // Spur from every node of the previous path except the terminal.
    for (std::size_t i = 0; i + 1 < last.path.size(); ++i) {
      const NodeId spur = last.path[i];
      std::vector<NodeId> root(last.path.begin(),
                               last.path.begin() +
                                   static_cast<std::ptrdiff_t>(i + 1));

      std::set<std::pair<NodeId, NodeId>> banned_edges;
      for (const Route& p : accepted) {
        if (p.path.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.path.begin())) {
          banned_edges.insert({std::min(p.path[i], p.path[i + 1]),
                               std::max(p.path[i], p.path[i + 1])});
        }
      }
      std::set<NodeId> banned_nodes(root.begin(), root.end());
      banned_nodes.erase(spur);

      const auto spur_route =
          masked_dijkstra(graph, spur, dst, metric, banned_nodes, banned_edges);
      if (!spur_route) continue;

      Route total;
      total.path = root;
      total.path.insert(total.path.end(), spur_route->path.begin() + 1,
                        spur_route->path.end());
      double cost = spur_route->cost;
      double eta = spur_route->transmissivity;
      for (std::size_t j = 0; j + 1 < root.size(); ++j) {
        const double best = best_eta(graph, root[j], root[j + 1]);
        cost += edge_cost(best, metric);
        eta *= best;
      }
      total.cost = cost;
      total.transmissivity = eta;

      const auto same_path = [&total](const Route& r) {
        return r.path == total.path;
      };
      if (std::none_of(accepted.begin(), accepted.end(), same_path) &&
          std::none_of(candidates.begin(), candidates.end(), same_path)) {
        candidates.push_back(std::move(total));
        std::push_heap(candidates.begin(), candidates.end(), cmp);
      }
    }
    if (candidates.empty()) break;
    std::pop_heap(candidates.begin(), candidates.end(), cmp);
    accepted.push_back(std::move(candidates.back()));
    candidates.pop_back();
  }
  return accepted;
}

std::vector<Route> k_disjoint_paths(const Graph& graph, NodeId src, NodeId dst,
                                    std::size_t k, CostMetric metric) {
  DisjointPathFinder finder;
  finder.reset(graph, metric);
  std::vector<Route> routes;
  finder.find(src, dst, k, routes);
  return routes;
}

void DisjointPathFinder::reset(const Graph& graph, CostMetric metric) {
  graph_ = &graph;
  metric_ = metric;
  node_count_ = graph.node_count();
  QNTN_REQUIRE(node_count_ <= std::numeric_limits<std::uint32_t>::max(),
               "DisjointPathFinder stores node ids in 32 bits");
  tree_count_ = 0;
  masks_.clear();
  head_.assign(node_count_, kNoSlot);
  banned_.assign(node_count_, 0);
}

void DisjointPathFinder::rebind(const Graph& graph) {
  QNTN_REQUIRE(graph_ != nullptr, "DisjointPathFinder rebound before reset()");
  QNTN_REQUIRE(metric_is_eta_independent(metric_),
               "DisjointPathFinder trees survive a rebind only under an "
               "eta-independent metric");
  QNTN_REQUIRE(graph.node_count() == node_count_,
               "DisjointPathFinder rebound to a graph of another size");
  graph_ = &graph;
}

void DisjointPathFinder::find(NodeId src, NodeId dst, std::size_t k,
                              std::vector<Route>& out) {
  QNTN_REQUIRE(graph_ != nullptr, "DisjointPathFinder used before reset()");
  QNTN_REQUIRE(src < node_count_ && dst < node_count_, "node out of range");
  QNTN_REQUIRE(k > 0, "k must be positive");
  out.clear();
  if (src == dst) {
    out.push_back(Route{{src}, 0.0, 1.0});
    return;
  }
  mask_.clear();
  bool direct_banned = false;
  while (out.size() < k) {
    if (direct_banned) {
      // A direct route has no interior to ban; the src-dst edge itself is
      // banned so at most one direct route is accepted (parallel edges are
      // duplicates of the same physical link here). That ban depends on
      // dst, so no shared tree answers it.
      auto route = masked_dijkstra(
          *graph_, src, dst, metric_,
          std::set<NodeId>(mask_.begin(), mask_.end()),
          {{std::min(src, dst), std::max(src, dst)}});
      if (!route) break;
      out.push_back(std::move(*route));
    } else {
      const std::size_t slot = tree_for(src);
      if (!grow(slot, dst)) break;
      const std::vector<Label>& labels = trees_[slot].labels;
      Route route;
      for (NodeId cur = dst; cur != src; cur = labels[cur].previous) {
        route.path.push_back(cur);
      }
      route.path.push_back(src);
      std::reverse(route.path.begin(), route.path.end());
      route.cost = labels[dst].cost;
      route.transmissivity = path_transmissivity(*graph_, route.path);
      out.push_back(std::move(route));
    }
    const std::vector<NodeId>& path = out.back().path;
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      mask_.insert(std::lower_bound(mask_.begin(), mask_.end(), path[i]),
                   path[i]);
    }
    if (path.size() == 2) direct_banned = true;
  }
}

std::size_t DisjointPathFinder::tree_for(NodeId source) {
  for (std::size_t slot = head_[source]; slot != kNoSlot;
       slot = trees_[slot].next) {
    const Tree& tree = trees_[slot];
    if (std::equal(masks_.data() + tree.mask_begin,
                   masks_.data() + tree.mask_end, mask_.begin(), mask_.end())) {
      return slot;
    }
  }
  obs::count("net.masked_searches");
  const std::size_t slot = tree_count_++;
  if (trees_.size() < tree_count_) trees_.emplace_back();
  Tree& tree = trees_[slot];
  tree.mask_begin = masks_.size();
  masks_.insert(masks_.end(), mask_.begin(), mask_.end());
  tree.mask_end = masks_.size();
  tree.next = head_[source];
  head_[source] = slot;
  tree.labels.assign(node_count_,
                     Label{std::numeric_limits<double>::infinity(), 0, false});
  tree.labels[source].cost = 0.0;
  if (metric_ == CostMetric::HopCount) {
    tree.queue.assign(1, source);
    tree.head = 0;
    tree.level_end = 1;
  } else {
    tree.heap.assign(1, HeapItem{0.0, source});
  }
  return slot;
}

bool DisjointPathFinder::grow(std::size_t slot, NodeId dst) {
  Tree& tree = trees_[slot];
  if (tree.labels[dst].settled) return true;
  const NodeId* mask_first = masks_.data() + tree.mask_begin;
  const NodeId* mask_last = masks_.data() + tree.mask_end;
  for (const NodeId* it = mask_first; it != mask_last; ++it) banned_[*it] = 1;
  if (metric_ == CostMetric::HopCount) {
    grow_levels(tree, dst);
  } else {
    grow_heap(tree, dst);
  }
  for (const NodeId* it = mask_first; it != mask_last; ++it) banned_[*it] = 0;
  return tree.labels[dst].settled;
}

void DisjointPathFinder::grow_heap(Tree& tree, NodeId dst) {
  std::vector<Label>& labels = tree.labels;
  // The per-pair search's loop, resumable: the same pops in the same order,
  // run until dst is settled instead of stopping there for good.
  std::vector<HeapItem>& heap = tree.heap;
  while (!heap.empty() && !labels[dst].settled) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [c, u] = heap.back();
    heap.pop_back();
    if (c > labels[u].cost) continue;
    labels[u].settled = true;
    for (const Adjacency& adj : graph_->neighbors(u)) {
      if (banned_[adj.to] != 0) continue;
      const double nc = c + edge_cost(adj.transmissivity, metric_);
      Label& next = labels[adj.to];
      if (nc < next.cost) {
        next.cost = nc;
        next.previous = static_cast<std::uint32_t>(u);
        heap.emplace_back(nc, adj.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

void DisjointPathFinder::grow_levels(Tree& tree, NodeId dst) {
  // With every edge costing 1 the heap pops all nodes of cost L, in id
  // order, before any of cost L + 1, and pushes each node once: a node is
  // first reached from level L at cost L + 1, and no later pop offers less.
  // So popping each level in id order, sorted once the level before it is
  // spent, is the heap's pop sequence, with the same labels and the same
  // relaxation arithmetic (c + 1.0).
  std::vector<Label>& labels = tree.labels;
  std::vector<NodeId>& queue = tree.queue;
  while (!labels[dst].settled) {
    if (tree.head == tree.level_end) {
      if (tree.head == queue.size()) break;  // the frontier ran dry
      std::sort(queue.begin() + static_cast<std::ptrdiff_t>(tree.head),
                queue.end());
      tree.level_end = queue.size();
    }
    const NodeId u = queue[tree.head++];
    const double c = labels[u].cost;
    labels[u].settled = true;
    for (const Adjacency& adj : graph_->neighbors(u)) {
      if (banned_[adj.to] != 0) continue;
      const double nc = c + 1.0;
      Label& next = labels[adj.to];
      if (nc < next.cost) {
        next.cost = nc;
        next.previous = static_cast<std::uint32_t>(u);
        queue.push_back(adj.to);
      }
    }
  }
}

double path_diversity(const std::vector<Route>& routes) {
  if (routes.size() < 2) return 1.0;
  std::size_t shared = 0;
  std::size_t total = 0;
  for (std::size_t a = 0; a < routes.size(); ++a) {
    for (std::size_t b = a + 1; b < routes.size(); ++b) {
      const auto interior = [](const Route& r) {
        return std::set<NodeId>(r.path.begin() + 1, r.path.end() - 1);
      };
      const std::set<NodeId> ia = interior(routes[a]);
      const std::set<NodeId> ib = interior(routes[b]);
      std::vector<NodeId> common;
      std::set_intersection(ia.begin(), ia.end(), ib.begin(), ib.end(),
                            std::back_inserter(common));
      shared += common.size();
      total += std::max(ia.size(), ib.size());
    }
  }
  if (total == 0) return 1.0;
  return 1.0 - static_cast<double>(shared) / static_cast<double>(total);
}

}  // namespace qntn::net
