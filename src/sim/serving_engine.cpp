#include "sim/serving_engine.hpp"

#include <algorithm>

#include "sim/em_serving.hpp"
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

/// The entanglement manager over the buffered-resource models of src/em.
/// Its per-epoch k-disjoint route table plays the role the per-source tree
/// table plays in single-shot serving.
class EmEngine final : public ServingEngine {
 public:
  EmEngine(const TopologyProvider& topology,
           const std::vector<Request>& requests, const EmOptions& options,
           quantum::FidelityConvention convention)
      : topology_(topology),
        requests_(requests),
        convention_(convention),
        manager_(options) {}

  [[nodiscard]] ServeStepResult serve_step(std::size_t /*step*/,
                                           double t) override {
    topology_.snapshot_at(t, snap_);
    return manager_.serve(snap_.graph, requests_, snap_.epoch, convention_);
  }

 private:
  const TopologyProvider& topology_;
  const std::vector<Request>& requests_;
  quantum::FidelityConvention convention_;
  TopologySnapshot snap_;
  EntanglementManager manager_;
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
