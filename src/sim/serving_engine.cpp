#include "sim/serving_engine.hpp"

#include <algorithm>

#include "em/serving.hpp"
#include "sim/requests.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace qntn::sim {

std::string_view serve_disposition_name(ServeDisposition disposition) {
  switch (disposition) {
    case ServeDisposition::Served:
      return "served";
    case ServeDisposition::NoPath:
      return "no_path";
    case ServeDisposition::Isolated:
      return "isolated";
    case ServeDisposition::Congested:
      return "congested";
    case ServeDisposition::RejectedCapacity:
      return "rejected_capacity";
    case ServeDisposition::DroppedDeadline:
      return "dropped_deadline";
  }
  return "unknown";
}

void ServeOutcome::merge(const ServeOutcome& other) {
  issued += other.issued;
  served += other.served;
  no_path += other.no_path;
  isolated += other.isolated;
  congested += other.congested;
  rejected_capacity += other.rejected_capacity;
  dropped_deadline += other.dropped_deadline;
  fidelity.merge(other.fidelity);
  transmissivity.merge(other.transmissivity);
  hops.merge(other.hops);
}

void EmStats::merge(const EmStats& other) {
  swaps += other.swaps;
  purification_rounds += other.purification_rounds;
  pairs_consumed += other.pairs_consumed;
  slo_met += other.slo_met;
  spilled += other.spilled;
  memory_occupancy.merge(other.memory_occupancy);
  swap_depth.merge(other.swap_depth);
  latency.merge(other.latency);
  latency_samples.insert(latency_samples.end(), other.latency_samples.begin(),
                         other.latency_samples.end());
}

void TrafficStats::merge(const TrafficStats& other) {
  latency.merge(other.latency);
  waiting.merge(other.waiting);
  peak_utilisation.merge(other.peak_utilisation);
  peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  latency_samples.insert(latency_samples.end(), other.latency_samples.begin(),
                         other.latency_samples.end());
  waiting_samples.insert(waiting_samples.end(), other.waiting_samples.begin(),
                         other.waiting_samples.end());
}

namespace {

ServeDisposition to_disposition(em::EmStatus status) {
  switch (status) {
    case em::EmStatus::Served:
      return ServeDisposition::Served;
    case em::EmStatus::NoPath:
      return ServeDisposition::NoPath;
    case em::EmStatus::Isolated:
      return ServeDisposition::Isolated;
    case em::EmStatus::Congested:
      return ServeDisposition::Congested;
  }
  return ServeDisposition::NoPath;
}

/// The paper's instantaneous single-shot links. Its snapshot slot and tree
/// table persist across steps: on an epoch-partitioned provider,
/// consecutive steps inside one epoch refresh the graph in place and, for
/// eta-independent metrics, reuse the per-source trees outright, bitwise
/// identical to serving a freshly built graph at every step.
class SingleShotEngine final : public ServingEngine {
 public:
  SingleShotEngine(const TopologyProvider& topology,
                   const std::vector<Request>& requests,
                   net::CostMetric metric,
                   quantum::FidelityConvention convention)
      : topology_(topology),
        requests_(requests),
        convention_(convention),
        trees_(metric) {}

  [[nodiscard]] ServeStepResult serve_step(std::size_t /*step*/,
                                           double t) override {
    trees_.refresh(topology_, t, snap_);
    return serve_snapshot(snap_.graph, requests_, convention_, trees_);
  }

 private:
  const TopologyProvider& topology_;
  const std::vector<Request>& requests_;
  quantum::FidelityConvention convention_;
  TopologySnapshot snap_;
  SourceTreeTable trees_;
};

/// The entanglement-management layer (src/em), adapted to the unified
/// result: em ranks below sim, so em::EmServeResult is translated here.
/// The manager's per-epoch k-disjoint route table plays the role the
/// per-source tree table plays in single-shot serving.
class EmEngine final : public ServingEngine {
 public:
  EmEngine(const TopologyProvider& topology,
           const std::vector<Request>& requests, const em::EmOptions& options,
           quantum::FidelityConvention convention)
      : topology_(topology), convention_(convention), manager_(options) {
    requests_.reserve(requests.size());
    for (const Request& request : requests) {
      requests_.push_back(em::EmRequest{request.source, request.destination});
    }
  }

  [[nodiscard]] ServeStepResult serve_step(std::size_t /*step*/,
                                           double t) override {
    topology_.snapshot_at(t, snap_);
    const em::EmServeResult sr =
        manager_.serve(snap_.graph, requests_, snap_.epoch, convention_);
    ServeStepResult out;
    out.outcome.issued = sr.total;
    out.outcome.served = sr.served;
    out.outcome.no_path = sr.unserved_no_path;
    out.outcome.isolated = sr.unserved_isolated;
    out.outcome.congested = sr.unserved_congested;
    out.outcome.fidelity = sr.fidelity;
    out.outcome.transmissivity = sr.transmissivity;
    out.outcome.hops = sr.hops;
    out.em.swaps = sr.swaps;
    out.em.purification_rounds = sr.purification_rounds;
    out.em.pairs_consumed = sr.pairs_consumed;
    out.em.slo_met = sr.slo_met;
    out.em.spilled = sr.spilled;
    out.em.memory_occupancy.add(sr.memory_occupancy);
    out.em.swap_depth = sr.swap_depth;
    out.em.latency = sr.latency;
    out.em.latency_samples.reserve(sr.served);
    out.requests.reserve(requests_.size());
    for (const em::EmOutcome& o : manager_.outcomes()) {
      RequestRecord rec;
      rec.disposition = to_disposition(o.status);
      rec.transmissivity = o.transmissivity;
      rec.fidelity = o.fidelity;
      rec.hops = o.hops;
      rec.relay = o.relay;
      rec.latency = o.latency;
      rec.em.swaps = o.swaps;
      rec.em.swap_depth = o.swap_depth;
      rec.em.purification_rounds = o.purification_rounds;
      rec.em.pairs_consumed = o.pairs_consumed;
      rec.em.route_index = o.route_index;
      if (rec.disposition == ServeDisposition::Served) {
        out.em.latency_samples.push_back(o.latency);
      }
      out.requests.push_back(rec);
    }
    return out;
  }

 private:
  const TopologyProvider& topology_;
  quantum::FidelityConvention convention_;
  std::vector<em::EmRequest> requests_;
  TopologySnapshot snap_;
  em::EntanglementManager manager_;
};

}  // namespace

std::unique_ptr<ServingEngine> make_serving_engine(
    const NetworkModel& model, const TopologyProvider& topology,
    const std::vector<Request>& requests, const ScenarioConfig& config,
    double step_interval, bool record_requests) {
  switch (config.serving_mode) {
    case ServingMode::Traffic:
      return std::make_unique<TrafficEngine>(model, topology, config.traffic,
                                             step_interval, record_requests);
    case ServingMode::Entanglement:
      // Fixed-batch engines always record: the scenario's handover
      // accounting reads per-request relays regardless of tracing.
      return std::make_unique<EmEngine>(topology, requests, config.em,
                                        config.convention);
    case ServingMode::SingleShot:
      break;
  }
  return std::make_unique<SingleShotEngine>(topology, requests,
                                            config.metric, config.convention);
}

}  // namespace qntn::sim
