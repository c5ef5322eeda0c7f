#pragma once

#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "quantum/fidelity.hpp"
#include "sim/network_model.hpp"
#include "sim/serving_engine.hpp"
#include "sim/topology.hpp"

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

/// Route and serve all requests on one snapshot graph. One tree per
/// distinct source with a reachable destination amortises the routing
/// cost; a pair in different components is no-path without a tree.
/// `ServeStepResult::requests` carries one record per request, in request
/// order (disposition, relay, eta/hops), which the scenario trace and
/// handover accounting consume.
[[nodiscard]] ServeStepResult serve_requests(
    const net::Graph& graph, const std::vector<Request>& requests,
    net::CostMetric metric = net::CostMetric::InverseEta,
    quantum::FidelityConvention convention =
        quantum::FidelityConvention::Uhlmann);

/// Serving core: serve_requests with the trees of `trees`, which must hold
/// `graph` (its last refresh or reset). The single-shot engine keeps one
/// table across snapshots, so under an eta-independent metric the trees
/// built in one step route every later step of the same epoch (served
/// transmissivity and fidelity still read the current etas through the
/// graph). Bitwise-identical to serve_requests on the same inputs.
[[nodiscard]] ServeStepResult serve_snapshot(
    const net::Graph& graph, const std::vector<Request>& requests,
    quantum::FidelityConvention convention, SourceTreeTable& trees);

}  // namespace qntn::sim
