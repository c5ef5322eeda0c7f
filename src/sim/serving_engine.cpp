#include "sim/serving_engine.hpp"

#include <utility>

#include "sim/em_snapshot.hpp"
#include "sim/scenario.hpp"
#include "sim/snapshot.hpp"
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

namespace {

ServeDisposition to_disposition(ServeStatus status) {
  switch (status) {
    case ServeStatus::Served:
      return ServeDisposition::Served;
    case ServeStatus::NoPath:
      return ServeDisposition::NoPath;
    case ServeStatus::Isolated:
      return ServeDisposition::Isolated;
  }
  return ServeDisposition::NoPath;
}

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

/// The paper's instantaneous single-shot links behind the unified API.
class SingleShotEngine final : public ServingEngine {
 public:
  SingleShotEngine(const TopologyProvider& topology, const RequestBatch& batch,
                   net::CostMetric metric,
                   quantum::FidelityConvention convention)
      : server_(topology, batch, metric, convention) {}

  [[nodiscard]] ServeStepResult serve_step(std::size_t step,
                                           double t) override {
    (void)step;
    const ServeResult sr = server_.serve_at(t);
    ServeStepResult out;
    out.outcome.issued = sr.total;
    out.outcome.served = sr.served;
    out.outcome.no_path = sr.unserved_no_path;
    out.outcome.isolated = sr.unserved_isolated;
    out.outcome.fidelity = sr.fidelity;
    out.outcome.transmissivity = sr.transmissivity;
    out.outcome.hops = sr.hops;
    out.requests.reserve(sr.outcomes.size());
    for (const RequestOutcome& o : sr.outcomes) {
      RequestRecord rec;
      rec.disposition = to_disposition(o.status);
      rec.transmissivity = o.transmissivity;
      rec.fidelity = o.fidelity;
      rec.hops = o.hops;
      rec.relay = o.relay;
      out.requests.push_back(rec);
    }
    return out;
  }

 private:
  SnapshotServer server_;
};

/// The entanglement-management layer (src/em) behind the unified API.
class EmEngine final : public ServingEngine {
 public:
  EmEngine(const TopologyProvider& topology, const RequestBatch& batch,
           const em::EmOptions& options,
           quantum::FidelityConvention convention)
      : server_(topology, batch, options, convention) {}

  [[nodiscard]] ServeStepResult serve_step(std::size_t step,
                                           double t) override {
    (void)step;
    const em::EmServeResult sr = server_.serve_at(t);
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
    out.em.memory_occupancy = sr.memory_occupancy;
    out.em.swap_depth = sr.swap_depth;
    out.em.latency = sr.latency;
    out.requests.reserve(sr.outcomes.size());
    for (const em::EmOutcome& o : sr.outcomes) {
      RequestRecord rec;
      rec.disposition = to_disposition(o.status);
      rec.transmissivity = o.transmissivity;
      rec.fidelity = o.fidelity;
      rec.hops = o.hops;
      rec.relay = o.relay;
      rec.latency = o.latency;
      rec.has_em = true;
      rec.em.swaps = o.swaps;
      rec.em.swap_depth = o.swap_depth;
      rec.em.purification_rounds = o.purification_rounds;
      rec.em.pairs_consumed = o.pairs_consumed;
      rec.em.route_index = o.route_index;
      out.requests.push_back(rec);
    }
    return out;
  }

 private:
  EmSnapshotServer server_;
};

}  // namespace

std::unique_ptr<ServingEngine> make_serving_engine(
    const NetworkModel& model, const TopologyProvider& topology,
    const RequestBatch& batch, const ScenarioConfig& config,
    double step_interval, bool record_requests) {
  switch (config.serving_mode) {
    case ServingMode::Traffic:
      return std::make_unique<TrafficEngine>(model, topology, config.traffic,
                                             step_interval, record_requests);
    case ServingMode::Entanglement:
      // Fixed-batch engines always record: the scenario's handover
      // accounting reads per-request relays regardless of tracing.
      return std::make_unique<EmEngine>(topology, batch, config.em,
                                        config.convention);
    case ServingMode::SingleShot:
      break;
  }
  return std::make_unique<SingleShotEngine>(topology, batch, config.metric,
                                            config.convention);
}

}  // namespace qntn::sim
