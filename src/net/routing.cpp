#include "net/routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace qntn::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Highest-transmissivity edge between u and v (parallel edges allowed);
/// 0 if not adjacent. The best edge under every supported metric is the
/// max-eta edge, since all metrics are decreasing in eta.
double best_edge_eta(const Graph& graph, NodeId u, NodeId v) {
  double best = 0.0;
  bool found = false;
  for (const Adjacency& adj : graph.neighbors(u)) {
    if (adj.to == v) {
      best = std::max(best, adj.transmissivity);
      found = true;
    }
  }
  QNTN_REQUIRE(found, "route step between non-adjacent nodes");
  return best;
}

double path_transmissivity(const Graph& graph, const std::vector<NodeId>& path) {
  double eta = 1.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    eta *= best_edge_eta(graph, path[i], path[i + 1]);
  }
  return eta;
}

}  // namespace

double edge_cost(double transmissivity, CostMetric metric) {
  QNTN_REQUIRE(transmissivity >= 0.0 && transmissivity <= 1.0,
               "transmissivity must be in [0, 1]");
  switch (metric) {
    case CostMetric::InverseEta:
      return 1.0 / (transmissivity + kRoutingEpsilon);
    case CostMetric::NegLogEta:
      return -std::log(std::clamp(transmissivity, kRoutingEpsilon, 1.0));
    case CostMetric::HopCount:
      return 1.0;
  }
  throw PreconditionError("unknown cost metric");
}

DistanceVectorRouter::DistanceVectorRouter(const Graph& graph, CostMetric metric)
    : graph_(graph), metric_(metric) {
  const std::size_t n = graph.node_count();
  QNTN_REQUIRE(n > 0, "routing over an empty graph");

  // INITIALIZE: cost 0 to self, edge cost to adjacent nodes, infinity else.
  tables_.assign(n, std::vector<RoutingEntry>(n, {kInf, std::nullopt}));
  for (NodeId node = 0; node < n; ++node) {
    tables_[node][node] = {0.0, node};
    for (const Adjacency& adj : graph.neighbors(node)) {
      const double c = edge_cost(adj.transmissivity, metric_);
      if (c < tables_[node][adj.to].cost) {
        tables_[node][adj.to] = {c, adj.to};
      }
    }
  }

  // Main loop: N-1 sweeps; UPDATE relaxes every node's table against the
  // current tables of the edge endpoints (Gauss-Seidel order, mirroring the
  // paper's note that all tables are accessible within one process).
  for (std::size_t round = 0; round + 1 < n; ++round) {
    bool changed = false;
    for (NodeId node = 0; node < n; ++node) {
      std::vector<RoutingEntry>& table = tables_[node];
      for (const Edge& e : graph_.edges()) {
        // Relax node->...->v->...->u for both orientations of the edge.
        const auto relax = [&](NodeId u, NodeId v) {
          const double via_cost = table[v].cost + tables_[v][u].cost;
          if (via_cost < table[u].cost) {
            table[u] = {via_cost, v};
            changed = true;
          }
        };
        relax(e.a, e.b);
        relax(e.b, e.a);
      }
    }
    if (!changed) break;
  }
}

const std::vector<RoutingEntry>& DistanceVectorRouter::table(NodeId node) const {
  QNTN_REQUIRE(node < tables_.size(), "node out of range");
  return tables_[node];
}

std::optional<Route> DistanceVectorRouter::route(NodeId src, NodeId dst) const {
  QNTN_REQUIRE(src < tables_.size() && dst < tables_.size(), "node out of range");
  // Expand the via-chain: R[src][dst].via = v means "reach v first, then
  // follow v's table to dst". Depth is bounded by the node count; deeper
  // recursion indicates an inconsistent table and is reported as a failure.
  const std::size_t n = tables_.size();
  std::vector<NodeId> path;
  // Iterative expansion with an explicit work stack of (from, to) segments.
  struct Segment {
    NodeId from;
    NodeId to;
  };
  std::vector<Segment> stack{{src, dst}};
  path.push_back(src);
  std::size_t guard = 0;
  while (!stack.empty()) {
    if (++guard > 4 * n * n) return std::nullopt;  // inconsistent tables
    const Segment seg = stack.back();
    stack.pop_back();
    if (seg.from == seg.to) continue;
    const RoutingEntry& entry = tables_[seg.from][seg.to];
    if (!entry.via.has_value()) return std::nullopt;  // unreachable
    const NodeId via = *entry.via;
    if (via == seg.to) {
      path.push_back(seg.to);  // direct edge
      continue;
    }
    // Process (from -> via) first, then (via -> to): push in reverse order.
    stack.push_back({via, seg.to});
    stack.push_back({seg.from, via});
  }
  Route out;
  out.path = std::move(path);
  out.cost = tables_[src][dst].cost;
  out.transmissivity = path_transmissivity(graph_, out.path);
  return out;
}

void compute_edge_costs(const Graph& graph, CostMetric metric,
                        std::vector<double>& out) {
  out.clear();
  out.reserve(graph.edge_count());
  for (const Edge& e : graph.edges()) {
    out.push_back(edge_cost(e.transmissivity, metric));
  }
}

void bellman_ford_tree(const Graph& graph, NodeId src,
                       const std::vector<double>& edge_costs,
                       ShortestPathTree& out) {
  QNTN_REQUIRE(src < graph.node_count(), "source out of range");
  QNTN_REQUIRE(edge_costs.size() == graph.edge_count(),
               "edge cost buffer does not match the graph");
  obs::count("net.bf_trees");
  const obs::Span span("net.bf_tree", graph.node_count());
  const std::size_t n = graph.node_count();
  out.cost.assign(n, kInf);
  out.previous.assign(n, std::nullopt);
  out.cost[src] = 0.0;
  const std::vector<Edge>& edges = graph.edges();
  std::size_t rounds = 0;
  for (std::size_t round = 0; round + 1 < n; ++round) {
    ++rounds;
    bool changed = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge& e = edges[i];
      const double c = edge_costs[i];
      if (out.cost[e.a] + c < out.cost[e.b]) {
        out.cost[e.b] = out.cost[e.a] + c;
        out.previous[e.b] = e.a;
        changed = true;
      }
      if (out.cost[e.b] + c < out.cost[e.a]) {
        out.cost[e.a] = out.cost[e.b] + c;
        out.previous[e.a] = e.b;
        changed = true;
      }
    }
    if (!changed) break;
  }
  obs::count("net.bf_rounds", rounds);
}

ShortestPathTree bellman_ford_tree(const Graph& graph, NodeId src,
                                   const std::vector<double>& edge_costs) {
  ShortestPathTree tree;
  bellman_ford_tree(graph, src, edge_costs, tree);
  return tree;
}

void index_half_edges(const Graph& graph, HopTreeScratch& scratch) {
  const std::size_t n = graph.node_count();
  const std::vector<Edge>& edges = graph.edges();
  scratch.offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++scratch.offsets[e.a + 1];
    ++scratch.offsets[e.b + 1];
  }
  for (std::size_t u = 0; u < n; ++u) {
    scratch.offsets[u + 1] += scratch.offsets[u];
  }
  scratch.half_edges.resize(2 * edges.size());
  // Fill each node's range from its front; the fill cursor of u is
  // offsets[u], restored afterwards by shifting the array back one slot.
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const auto position = static_cast<std::int64_t>(2 * i);
    scratch.half_edges[scratch.offsets[e.a]++] = {e.b, position};
    scratch.half_edges[scratch.offsets[e.b]++] = {e.a, position + 1};
  }
  for (std::size_t u = n; u > 0; --u) {
    scratch.offsets[u] = scratch.offsets[u - 1];
  }
  scratch.offsets[0] = 0;
}

void hop_count_tree(const Graph& graph, NodeId src, HopTreeScratch& scratch,
                    ShortestPathTree& out) {
  const std::size_t n = graph.node_count();
  QNTN_REQUIRE(src < n, "source out of range");
  QNTN_REQUIRE(scratch.offsets.size() == n + 1 &&
                   scratch.half_edges.size() == 2 * graph.edge_count(),
               "half-edge index does not match the graph");
  const auto sweep = static_cast<std::int64_t>(scratch.half_edges.size());
  obs::count("net.hop_trees");
  out.cost.assign(n, kInf);
  out.previous.assign(n, std::nullopt);
  scratch.settled.resize(n);
  scratch.queue.clear();
  out.cost[src] = 0.0;
  scratch.settled[src] = -1;
  scratch.queue.push_back(src);
  // FIFO order finishes level d−1 before any level-d node is read, so a
  // node's settle time is final by the time its own edges are scanned.
  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    const NodeId u = scratch.queue[head];
    const double level = out.cost[u] + 1.0;
    // u's cost became final at round r, position p (or before round 0 for
    // the source); its relaxation at position q next runs in round r when
    // q > p, else in round r + 1. q never equals p: p relaxes an edge into
    // u, q one out of it.
    const std::int64_t settled = scratch.settled[u];
    std::int64_t round_start = 0;
    std::int64_t settled_position = -1;
    if (settled >= 0) {
      settled_position = settled % sweep;
      round_start = settled - settled_position;
    }
    for (std::size_t k = scratch.offsets[u]; k < scratch.offsets[u + 1];
         ++k) {
      const HopTreeScratch::HalfEdge& half = scratch.half_edges[k];
      const NodeId v = half.to;
      if (out.cost[v] < level) continue;  // v is at u's level or lower
      const std::int64_t time =
          round_start + half.position +
          (half.position > settled_position ? 0 : sweep);
      if (out.cost[v] == kInf) {
        out.cost[v] = level;
        scratch.queue.push_back(v);
      } else if (time >= scratch.settled[v]) {
        continue;
      }
      scratch.settled[v] = time;
      out.previous[v] = u;
    }
  }
}

ShortestPathTree bellman_ford_tree(const Graph& graph, NodeId src,
                                   CostMetric metric) {
  // Price every edge once up front: edge_cost is pure in (eta, metric), so
  // hoisting it out of the relaxation rounds (where it used to run per edge
  // per round — a std::log for NegLogEta) changes no result bit.
  std::vector<double> costs;
  compute_edge_costs(graph, metric, costs);
  return bellman_ford_tree(graph, src, costs);
}

std::optional<Route> route_from_tree(const Graph& graph,
                                     const ShortestPathTree& tree, NodeId src,
                                     NodeId dst) {
  if (tree.cost[dst] == kInf) return std::nullopt;
  Route out;
  NodeId cur = dst;
  out.path.push_back(cur);
  while (cur != src) {
    QNTN_REQUIRE(tree.previous[cur].has_value(), "broken shortest-path tree");
    cur = *tree.previous[cur];
    out.path.push_back(cur);
    QNTN_REQUIRE(out.path.size() <= graph.node_count(), "cycle in tree");
  }
  std::reverse(out.path.begin(), out.path.end());
  out.cost = tree.cost[dst];
  out.transmissivity = path_transmissivity(graph, out.path);
  return out;
}

namespace {

/// True if dst is reachable from src over nodes with load < capacity (an
/// unsaturated src reaches itself).
bool reachable_unsaturated(const Graph& graph,
                           const std::vector<std::size_t>& load,
                           std::size_t capacity, NodeId src, NodeId dst,
                           RerouteScratch& scratch) {
  if (src == dst) return true;
  if (load[src] >= capacity) return false;
  scratch.seen.resize(graph.node_count(), 0);
  if (++scratch.stamp == 0) {  // wrapped: clear stale stamps once
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0);
    scratch.stamp = 1;
  }
  scratch.queue.clear();
  scratch.queue.push_back(src);
  scratch.seen[src] = scratch.stamp;
  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    for (const Adjacency& adj : graph.neighbors(scratch.queue[head])) {
      if (scratch.seen[adj.to] == scratch.stamp || load[adj.to] >= capacity) {
        continue;
      }
      if (adj.to == dst) return true;
      scratch.seen[adj.to] = scratch.stamp;
      scratch.queue.push_back(adj.to);
    }
  }
  return false;
}

}  // namespace

std::optional<Route> reroute_around_saturated(
    const Graph& graph, const std::vector<double>& edge_costs,
    const std::vector<std::size_t>& load, std::size_t capacity, NodeId src,
    NodeId dst, RerouteScratch& scratch) {
  QNTN_REQUIRE(src < graph.node_count() && dst < graph.node_count(),
               "node out of range");
  QNTN_REQUIRE(load.size() == graph.node_count(),
               "load table does not match the graph");
  if (!reachable_unsaturated(graph, load, capacity, src, dst, scratch)) {
    ++scratch.gated;
    return std::nullopt;
  }
  ++scratch.trees;
  scratch.masked_costs = edge_costs;
  const std::vector<Edge>& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (load[edges[e].a] >= capacity || load[edges[e].b] >= capacity) {
      scratch.masked_costs[e] = kInf;
    }
  }
  // route_from_tree yields nullopt exactly when cost[dst] = +inf.
  return route_from_tree(
      graph, bellman_ford_tree(graph, src, scratch.masked_costs), src, dst);
}

std::optional<Route> bellman_ford(const Graph& graph, NodeId src, NodeId dst,
                                  CostMetric metric) {
  QNTN_REQUIRE(dst < graph.node_count(), "destination out of range");
  const ShortestPathTree tree = bellman_ford_tree(graph, src, metric);
  return route_from_tree(graph, tree, src, dst);
}

std::optional<Route> dijkstra(const Graph& graph, NodeId src, NodeId dst,
                              CostMetric metric) {
  QNTN_REQUIRE(src < graph.node_count() && dst < graph.node_count(),
               "node out of range");
  obs::count("net.dijkstra_calls");
  const obs::Span span("net.dijkstra", graph.node_count());
  const std::size_t n = graph.node_count();
  std::vector<double> cost(n, kInf);
  std::vector<std::optional<NodeId>> previous(n);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  cost[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [c, u] = heap.top();
    heap.pop();
    if (c > cost[u]) continue;  // stale entry
    if (u == dst) break;
    for (const Adjacency& adj : graph.neighbors(u)) {
      const double nc = c + edge_cost(adj.transmissivity, metric);
      if (nc < cost[adj.to]) {
        cost[adj.to] = nc;
        previous[adj.to] = u;
        heap.emplace(nc, adj.to);
      }
    }
  }
  ShortestPathTree tree{std::move(cost), std::move(previous)};
  return route_from_tree(graph, tree, src, dst);
}

}  // namespace qntn::net
