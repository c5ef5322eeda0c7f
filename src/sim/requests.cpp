#include "sim/requests.hpp"

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

ServeStepResult serve_snapshot(const net::Graph& graph,
                               const std::vector<Request>& requests,
                               quantum::FidelityConvention convention,
                               SourceTreeTable& trees) {
  ServeStepResult result;
  ServeOutcome& outcome = result.outcome;
  outcome.issued = requests.size();
  result.requests.resize(requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    RequestRecord& rec = result.requests[i];
    // Isolated endpoints cannot be served regardless of routing; classify
    // them before paying for a shortest-path tree.
    if (graph.neighbors(req.source).empty() ||
        graph.neighbors(req.destination).empty()) {
      ++outcome.isolated;
      rec.disposition = ServeDisposition::Isolated;
      continue;
    }
    // Endpoints in different components have no path; they need no tree.
    if (!trees.linked(req.source, req.destination)) {
      ++outcome.no_path;  // records default to NoPath
      continue;
    }
    const auto route = net::route_from_tree(
        graph, trees.tree(graph, req.source), req.source, req.destination);
    ++outcome.served;
    const double fidelity =
        quantum::bell_fidelity_after_damping(route->transmissivity, convention);
    outcome.transmissivity.add(route->transmissivity);
    outcome.hops.add(static_cast<double>(route->path.size() - 1));
    outcome.fidelity.add(fidelity);
    rec.disposition = ServeDisposition::Served;
    rec.transmissivity = route->transmissivity;
    rec.fidelity = fidelity;
    rec.hops = route->path.size() - 1;
    if (route->path.size() > 2) rec.relay = route->path[1];
  }
  return result;
}

ServeStepResult serve_requests(const net::Graph& graph,
                               const std::vector<Request>& requests,
                               net::CostMetric metric,
                               quantum::FidelityConvention convention) {
  SourceTreeTable trees(metric);
  trees.reset(graph);
  return serve_snapshot(graph, requests, convention, trees);
}

}  // namespace qntn::sim
