#pragma once

#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "quantum/fidelity.hpp"
#include "sim/network_model.hpp"
#include "sim/serving_engine.hpp"

/// \file requests.hpp
/// Entanglement distribution requests and the serving loop. The paper's
/// protocol (Sections IV-B/IV-C): generate 100 random requests whose source
/// and destination lie in different LANs, route each with Bellman-Ford on
/// the cost 1/(eta + eps), count the served ones, and record the end-to-end
/// entanglement fidelity of the established pairs. Amplitude damping
/// composes multiplicatively along a path — AD(eta1) then AD(eta2) equals
/// AD(eta1*eta2) — so the end-to-end fidelity is a closed-form function of
/// the path transmissivity product (pinned against full density-matrix
/// simulation by the integration tests).

namespace qntn::sim {

struct Request {
  net::NodeId source = 0;
  net::NodeId destination = 0;
};

/// Generate `count` uniformly random requests with endpoints in distinct
/// LANs (the paper's workload). Deterministic given the Rng state.
[[nodiscard]] std::vector<Request> generate_requests(const NetworkModel& model,
                                                     std::size_t count,
                                                     Rng& rng);

/// A request batch with its source-compaction table, built once per run:
/// the scenario serves the same requests at every snapshot, so the distinct
/// sources (and each request's slot in that table) are day-invariants that
/// do not belong in the per-step loop. Shortest-path trees are stored in a
/// flat vector indexed by slot — no per-step std::map.
struct RequestBatch {
  std::vector<Request> requests;
  /// Distinct request sources in first-appearance order.
  std::vector<net::NodeId> sources;
  /// Per request: index of its source in `sources`.
  std::vector<std::size_t> source_slot;
};

[[nodiscard]] RequestBatch make_request_batch(std::vector<Request> requests);

/// Reusable per-worker serving scratch: the edge-cost buffer priced once
/// per snapshot and the per-source shortest-path trees (flat, slot-indexed).
/// With an eta-independent metric the trees survive every snapshot of one
/// topology epoch (the per-epoch route cache); otherwise they are
/// invalidated per snapshot and only the allocations are reused.
struct ServeScratch {
  std::vector<double> edge_costs;
  std::vector<net::ShortestPathTree> trees;
  std::vector<char> tree_valid;
};

/// Route and serve all requests on the given snapshot. One Bellman-Ford
/// tree per distinct source amortises the routing cost. With
/// record_outcomes, `ServeStepResult::requests` carries one record per
/// request, in request order (disposition, relay, eta/hops), which the
/// scenario trace and handover accounting consume.
[[nodiscard]] ServeStepResult serve_requests(
    const net::Graph& graph, const std::vector<Request>& requests,
    net::CostMetric metric = net::CostMetric::InverseEta,
    quantum::FidelityConvention convention =
        quantum::FidelityConvention::Uhlmann,
    bool record_outcomes = false);

/// Serving core: serve a prebuilt batch against one snapshot, reusing the
/// caller's scratch. With reuse_trees the per-source trees cached in the
/// scratch are assumed valid for this graph — only correct when the metric
/// is eta-independent and the graph is the same epoch's skeleton with
/// refreshed transmissivities (route structure is then unchanged; served
/// transmissivity/fidelity still read the current etas through the graph).
/// Bitwise-identical to serve_requests on the same inputs.
[[nodiscard]] ServeStepResult serve_snapshot(
    const net::Graph& graph, const RequestBatch& batch, net::CostMetric metric,
    quantum::FidelityConvention convention, ServeScratch& scratch,
    bool record_outcomes, bool reuse_trees = false);

}  // namespace qntn::sim
