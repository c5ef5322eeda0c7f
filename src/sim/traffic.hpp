#pragma once

#include <cstdint>

#include "geo/sun.hpp"
#include "net/routing.hpp"
#include "quantum/memory.hpp"
#include "sim/serving_engine.hpp"
#include "sim/topology.hpp"

/// \file traffic.hpp
/// The open-arrival serving engine (`ServingMode::Traffic`, DESIGN.md §12).
/// The paper serves a fixed request batch instantaneously at topology
/// snapshots; this engine models the dynamics it abstracts away: per-LAN
/// Poisson request arrivals with a diurnal rate profile, per-node service
/// occupancy (a node can work on a bounded number of pairs at once),
/// queueing delay, heralding latency at the speed of light, and memory
/// decoherence while pairs wait — so throughput, latency and *effective*
/// fidelity can be traded off against offered load.
///
/// Event-driven core: one serving window per scenario step, a time-ordered
/// heap of events (request arrivals, service completions); arrivals claim
/// capacity on every node of their route or wait in a FIFO backlog bounded
/// by `max_queue_delay` and `max_backlog`, with unified ServeOutcome
/// accounting.

namespace qntn::sim {

struct TrafficConfig {
  /// Poisson request arrivals per LAN population [1/s], before the diurnal
  /// factor.
  double arrival_rate = 1.0;
  /// Concurrent pairs a node can work on (relays bind first).
  std::size_t node_capacity = 4;
  /// Base service time per request [s] on top of the light-time heralding
  /// (local BSMs, classical processing).
  double service_overhead = 0.01;
  /// Requests queued longer than this are dropped (decohered / timed out).
  double max_queue_delay = 0.5;
  /// Backpressure bound: arrivals finding this many requests already
  /// queued are refused at admission (rejected_capacity).
  std::size_t max_backlog = 256;
  /// Diurnal modulation amplitude a in [0, 1]: a LAN's arrival rate is
  /// arrival_rate * (1 + a) while the sun is up at the LAN site and
  /// arrival_rate * (1 - a) at night — user populations are awake in
  /// daylight even though FSO links prefer darkness.
  double diurnal_amplitude = 0.5;
  /// Solar geometry behind the diurnal profile (sim/daylight's model).
  geo::SunModel sun{};
  quantum::MemoryModel memory{};
  net::CostMetric metric = net::CostMetric::InverseEta;
  std::uint64_t seed = 7;

  /// Throws qntn::PreconditionError on degenerate parameters
  /// (non-positive deadline/capacity/backlog, negative rate, amplitude
  /// outside [0, 1], ...).
  void validate() const;
};

/// The open-arrival serving engine of the scenario loop (ServingEngine
/// impl). Each scenario step is one serving window [t, t + window): per-LAN
/// Poisson arrivals are drawn from a seeded (step, LAN) substream with the
/// diurnal rate factor at window start, then the event heap interleaves
/// arrivals, capacity claims, deadline drops and completions against the
/// step's topology snapshot. Routes come from the engine's
/// SourceTreeTable (topology.hpp), the single-shot engine's tree table: one
/// tree per arrival source with a reachable destination, kept across the
/// windows of one epoch under an eta-independent metric. Capacity and
/// backlog reset at every window boundary (the same steady-state discipline
/// as the em pool rebuilt per snapshot), which makes serve_step a pure
/// function of (step, snapshot, config) — exactly what the parallel
/// scenario loop needs for byte-identical results across thread counts.
class TrafficEngine final : public ServingEngine {
 public:
  /// Borrows model and topology; both must outlive the engine. `window` is
  /// the scenario's snapshot interval [s]. Validates the config.
  TrafficEngine(const NetworkModel& model, const TopologyProvider& topology,
                const TrafficConfig& config, double window,
                bool record_requests);

  [[nodiscard]] ServeStepResult serve_step(std::size_t step,
                                           double t) override;

 private:
  struct Arrival {
    double time = 0.0;  ///< absolute simulation time [s]
    net::NodeId source = 0;
    net::NodeId destination = 0;
  };

  /// Draw the window's arrivals (all LANs, time-sorted) into arrivals_.
  void draw_arrivals(std::size_t step, double t0);

  const NetworkModel& model_;
  const TopologyProvider& topology_;
  TrafficConfig config_;
  double window_ = 0.0;
  bool record_requests_ = false;

  /// Destination candidates per source LAN (ground nodes of other LANs)
  /// and the site used for each LAN's diurnal factor.
  std::vector<std::vector<net::NodeId>> peers_;
  std::vector<geo::Geodetic> lan_sites_;

  /// Reusable per-step scratch. The snapshot is frozen for the whole
  /// window.
  TopologySnapshot snap_;
  SourceTreeTable trees_;
  std::vector<Arrival> arrivals_;
  std::vector<std::size_t> busy_;
  net::RerouteScratch reroute_;
  /// Node ECEF positions at the current window start, memoised per node.
  std::vector<Vec3> positions_;
  std::vector<std::uint32_t> position_stamp_;  ///< valid iff == window_stamp_
  std::uint32_t window_stamp_ = 0;
};

}  // namespace qntn::sim
