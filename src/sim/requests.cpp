#include "sim/requests.hpp"

#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace qntn::sim {

std::vector<Request> generate_requests(const NetworkModel& model,
                                       std::size_t count, Rng& rng) {
  QNTN_REQUIRE(model.lan_count() >= 2,
               "inter-LAN requests need at least two LANs");
  std::vector<Request> out;
  out.reserve(count);
  const auto lan_count = static_cast<std::int64_t>(model.lan_count());
  for (std::size_t i = 0; i < count; ++i) {
    const auto lan_a = static_cast<std::size_t>(rng.uniform_int(0, lan_count - 1));
    auto lan_b = static_cast<std::size_t>(rng.uniform_int(0, lan_count - 2));
    if (lan_b >= lan_a) ++lan_b;  // uniform over LANs distinct from lan_a
    const std::vector<net::NodeId>& nodes_a = model.lan_nodes(lan_a);
    const std::vector<net::NodeId>& nodes_b = model.lan_nodes(lan_b);
    Request req;
    req.source = nodes_a[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes_a.size()) - 1))];
    req.destination = nodes_b[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes_b.size()) - 1))];
    out.push_back(req);
  }
  return out;
}

RequestBatch make_request_batch(std::vector<Request> requests) {
  RequestBatch batch;
  batch.requests = std::move(requests);
  batch.source_slot.reserve(batch.requests.size());
  std::unordered_map<net::NodeId, std::size_t> slot_of;
  for (const Request& req : batch.requests) {
    const auto [it, inserted] = slot_of.try_emplace(req.source,
                                                    batch.sources.size());
    if (inserted) batch.sources.push_back(req.source);
    batch.source_slot.push_back(it->second);
  }
  return batch;
}

ServeStepResult serve_snapshot(const net::Graph& graph,
                               const RequestBatch& batch,
                               net::CostMetric metric,
                               quantum::FidelityConvention convention,
                               ServeScratch& scratch, bool record_outcomes,
                               bool reuse_trees) {
  if (!reuse_trees || scratch.tree_valid.size() != batch.sources.size() ||
      scratch.edge_costs.size() != graph.edge_count()) {
    scratch.trees.resize(batch.sources.size());
    scratch.tree_valid.assign(batch.sources.size(), 0);
    net::compute_edge_costs(graph, metric, scratch.edge_costs);
  }

  ServeStepResult result;
  ServeOutcome& outcome = result.outcome;
  outcome.issued = batch.requests.size();
  if (record_outcomes) result.requests.resize(batch.requests.size());

  // One shortest-path tree per distinct source, built on demand and kept in
  // the scratch's flat slot table.
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& req = batch.requests[i];
    // Isolated endpoints cannot be served regardless of routing; classify
    // them before paying for a shortest-path tree.
    if (graph.neighbors(req.source).empty() ||
        graph.neighbors(req.destination).empty()) {
      ++outcome.isolated;
      if (record_outcomes) {
        result.requests[i].disposition = ServeDisposition::Isolated;
      }
      continue;
    }
    const std::size_t slot = batch.source_slot[i];
    if (scratch.tree_valid[slot] == 0) {
      scratch.trees[slot] =
          net::bellman_ford_tree(graph, req.source, scratch.edge_costs);
      scratch.tree_valid[slot] = 1;
    }
    const auto route = net::route_from_tree(graph, scratch.trees[slot],
                                            req.source, req.destination);
    if (!route.has_value()) {
      ++outcome.no_path;  // records default to NoPath
      continue;
    }
    ++outcome.served;
    const double fidelity =
        quantum::bell_fidelity_after_damping(route->transmissivity, convention);
    outcome.transmissivity.add(route->transmissivity);
    outcome.hops.add(static_cast<double>(route->path.size() - 1));
    outcome.fidelity.add(fidelity);
    if (record_outcomes) {
      RequestRecord& rec = result.requests[i];
      rec.disposition = ServeDisposition::Served;
      rec.transmissivity = route->transmissivity;
      rec.fidelity = fidelity;
      rec.hops = route->path.size() - 1;
      if (route->path.size() > 2) rec.relay = route->path[1];
    }
  }
  return result;
}

ServeStepResult serve_requests(const net::Graph& graph,
                               const std::vector<Request>& requests,
                               net::CostMetric metric,
                               quantum::FidelityConvention convention,
                               bool record_outcomes) {
  const RequestBatch batch = make_request_batch(requests);
  ServeScratch scratch;
  return serve_snapshot(graph, batch, metric, convention, scratch,
                        record_outcomes, /*reuse_trees=*/false);
}

}  // namespace qntn::sim
