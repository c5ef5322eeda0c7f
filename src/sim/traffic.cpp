#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "quantum/fidelity.hpp"

namespace qntn::sim {

void TrafficConfig::validate() const {
  // An infinite rate would draw arrivals forever (every gap -log(u)/rate
  // is 0) and an infinite overhead would schedule completions at +inf;
  // the deadline alone may be infinite (never drop).
  QNTN_REQUIRE(std::isfinite(arrival_rate) && arrival_rate >= 0.0,
               "traffic arrival_rate must be finite and >= 0");
  QNTN_REQUIRE(node_capacity > 0, "traffic node capacity must be positive");
  QNTN_REQUIRE(std::isfinite(service_overhead) && service_overhead >= 0.0,
               "traffic service_overhead must be finite and >= 0");
  QNTN_REQUIRE(max_queue_delay > 0.0, "traffic max queue delay must be > 0");
  QNTN_REQUIRE(max_backlog > 0, "traffic max backlog must be positive");
  QNTN_REQUIRE(diurnal_amplitude >= 0.0 && diurnal_amplitude <= 1.0,
               "traffic diurnal amplitude must be in [0, 1]");
}

namespace {

/// Heap event: request arrival or service completion.
struct Event {
  double time = 0.0;
  std::uint64_t sequence = 0;  ///< tie-breaker for determinism
  enum class Kind { Arrival, Completion } kind = Kind::Arrival;
  std::size_t payload = 0;  ///< arrival index / in-flight record index

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

struct InFlight {
  std::vector<net::NodeId> nodes;
};

/// splitmix64 finaliser: one well-mixed 64-bit seed per substream index, so
/// every (step, LAN) arrival stream is independent of processing order.
std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

TrafficEngine::TrafficEngine(const NetworkModel& model,
                             const TopologyProvider& topology,
                             const TrafficConfig& config, double window,
                             bool record_requests)
    : model_(model),
      topology_(topology),
      config_(config),
      window_(window),
      record_requests_(record_requests),
      trees_(config.metric) {
  config_.validate();
  QNTN_REQUIRE(window_ > 0.0, "traffic serving window must be > 0");

  // Destination candidates: the ground nodes of every *other* LAN, in node-id
  // order (LANs are declared grounds-first, so iterating LANs in order gives
  // a deterministic candidate list). Mirrors generate_requests' inter-LAN
  // workload, but as a per-source-LAN population.
  peers_.resize(model_.lan_count());
  lan_sites_.resize(model_.lan_count());
  for (std::size_t lan = 0; lan < model_.lan_count(); ++lan) {
    for (std::size_t other = 0; other < model_.lan_count(); ++other) {
      if (other == lan) continue;
      const auto& nodes = model_.lan_nodes(other);
      peers_[lan].insert(peers_[lan].end(), nodes.begin(), nodes.end());
    }
    if (!model_.lan_nodes(lan).empty()) {
      lan_sites_[lan] = model_.node(model_.lan_nodes(lan).front()).position;
    }
  }
  busy_.assign(model_.node_count(), 0);
  positions_.resize(model_.node_count());
  position_stamp_.assign(model_.node_count(), 0);
}

void TrafficEngine::draw_arrivals(std::size_t step, double t0) {
  arrivals_.clear();
  const std::size_t lan_count = model_.lan_count();
  for (std::size_t lan = 0; lan < lan_count; ++lan) {
    const auto& sources = model_.lan_nodes(lan);
    const auto& peers = peers_[lan];
    if (sources.empty() || peers.empty()) continue;

    // Diurnal profile: user populations are awake in daylight. The factor is
    // evaluated once per window at the LAN site — rate changes land on window
    // boundaries, keeping each window a homogeneous Poisson process.
    const bool day = config_.sun.solar_elevation(lan_sites_[lan], t0) > 0.0;
    const double rate = config_.arrival_rate *
                        (day ? 1.0 + config_.diurnal_amplitude
                             : 1.0 - config_.diurnal_amplitude);
    if (rate <= 0.0) continue;

    // One independent, well-mixed substream per (step, LAN): arrivals are a
    // pure function of (seed, step, lan) no matter which worker draws them.
    Rng rng(substream_seed(config_.seed,
                           static_cast<std::uint64_t>(step) * lan_count + lan +
                               1));
    double offset = 0.0;
    for (;;) {
      const double u = rng.uniform(1e-12, 1.0);
      offset += -std::log(u) / rate;
      if (offset >= window_) break;
      Arrival arrival;
      arrival.time = t0 + offset;
      arrival.source =
          sources[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(sources.size()) - 1))];
      arrival.destination =
          peers[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(peers.size()) - 1))];
      arrivals_.push_back(arrival);
    }
  }
  // Interleave the per-LAN streams into one time-ordered arrival sequence;
  // stable so equal times (possible only across LANs) keep LAN order.
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
}

ServeStepResult TrafficEngine::serve_step(std::size_t step, double t) {
  trees_.refresh(topology_, t, snap_);
  const net::Graph& graph = snap_.graph;

  draw_arrivals(step, t);

  ServeStepResult out;
  out.outcome.issued = arrivals_.size();
  if (record_requests_) out.requests.resize(arrivals_.size());

  double peak_utilisation = 0.0;  // busiest node / capacity this window
  std::fill(busy_.begin(), busy_.end(), 0);
  std::vector<InFlight> in_flight;
  // Whether try_start succeeds for a queued arrival depends only on its
  // tree and the set S of saturated nodes (busy >= capacity), and failure
  // is monotone in S: a superset of saturated nodes blocks whatever the
  // subset did. `releases` logs every node that left S, in order; a queued
  // arrival carries the log length at its last failure, and is retried
  // only once a node released since then is unsaturated at the drain.
  // Otherwise S has only grown since the failure and the retry would fail.
  struct Pending {
    std::size_t arrival_index = 0;
    std::size_t stamp = 0;  ///< releases.size() at the last failure
  };
  std::vector<Pending> backlog;
  std::vector<net::NodeId> releases;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::uint64_t sequence = 0;
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    heap.push({arrivals_[i].time, sequence++, Event::Kind::Arrival, i});
  }

  // Node positions for the heralding length, read once per window.
  ++window_stamp_;
  const auto position = [&](net::NodeId id) -> const Vec3& {
    if (position_stamp_[id] != window_stamp_) {
      positions_[id] = model_.position_ecef(id, t);
      position_stamp_[id] = window_stamp_;
    }
    return positions_[id];
  };
  const std::size_t gated_before = reroute_.gated;
  const std::size_t trees_before = reroute_.trees;

  const auto finish = [&](std::size_t index, ServeDisposition disposition,
                          const net::Route* route, double waiting,
                          double service, double fidelity = 0.0) {
    if (record_requests_) {
      RequestRecord& rec = out.requests[index];
      rec.disposition = disposition;
      rec.source = arrivals_[index].source;
      rec.destination = arrivals_[index].destination;
      if (disposition == ServeDisposition::Served) {
        rec.transmissivity = route->transmissivity;
        rec.fidelity = fidelity;
        rec.hops = route->path.size() - 1;
        rec.latency = waiting + service;
        rec.waiting = waiting;
        if (route->path.size() > 2) rec.relay = route->path[1];
      }
    }
    switch (disposition) {
      case ServeDisposition::Served:
        ++out.outcome.served;
        break;
      case ServeDisposition::NoPath:
        ++out.outcome.no_path;
        break;
      case ServeDisposition::Isolated:
        ++out.outcome.isolated;
        break;
      case ServeDisposition::RejectedCapacity:
        ++out.outcome.rejected_capacity;
        break;
      case ServeDisposition::DroppedDeadline:
        ++out.outcome.dropped_deadline;
        break;
      case ServeDisposition::Congested:
        ++out.outcome.congested;
        break;
    }
  };

  // Attempt to start service for arrival `index` at time `now`; returns true
  // if it reached a terminal disposition or started service, false if it
  // must (keep) wait(ing) in the backlog.
  const auto try_start = [&](std::size_t index, double now) -> bool {
    const Arrival& arrival = arrivals_[index];
    const bool first_attempt = now == arrival.time;
    if (first_attempt) {
      if (graph.neighbors(arrival.source).empty() ||
          graph.neighbors(arrival.destination).empty()) {
        finish(index, ServeDisposition::Isolated, nullptr, 0.0, 0.0);
        return true;
      }
    }
    // Endpoints in different components have no path and need no tree.
    // The topology is frozen for the window, so no-path is terminal; it can
    // only trip on the first attempt (queued requests had a route).
    if (!trees_.linked(arrival.source, arrival.destination)) {
      finish(index, ServeDisposition::NoPath, nullptr, 0.0, 0.0);
      return true;
    }
    // Decide from the tree before extracting a route: most linked attempts
    // that fail end in a wait and never need the path.
    const net::ShortestPathTree& tree = trees_.tree(graph, arrival.source);
    // Endpoints must have room themselves; a saturated endpoint can only be
    // waited out.
    if (busy_[arrival.source] >= config_.node_capacity ||
        busy_[arrival.destination] >= config_.node_capacity) {
      return false;
    }
    bool saturated = false;
    for (net::NodeId id = arrival.destination; id != arrival.source;
         id = *tree.previous[id]) {
      if (busy_[id] >= config_.node_capacity) {
        saturated = true;
        break;
      }
    }
    // Saturation reroute: retry with every edge touching a saturated node
    // priced out, or wait for capacity when only infinite-cost detours are
    // left. Deterministic — depends only on the busy table at `now`.
    auto route =
        saturated
            ? net::reroute_around_saturated(
                  graph, trees_.edge_costs(), busy_, config_.node_capacity,
                  arrival.source, arrival.destination, reroute_)
            : net::route_from_tree(graph, tree, arrival.source,
                                   arrival.destination);
    if (!route.has_value()) return false;
    for (const net::NodeId id : route->path) ++busy_[id];
    for (const net::NodeId id : route->path) {
      const double utilisation = static_cast<double>(busy_[id]) /
                                 static_cast<double>(config_.node_capacity);
      peak_utilisation = std::max(peak_utilisation, utilisation);
    }

    // Heralding: light makes one round trip over the physical path. Node
    // positions are read at the window start — the same freeze the topology
    // snapshot applies — so service times are a pure function of the step.
    double path_length = 0.0;
    for (std::size_t i = 0; i + 1 < route->path.size(); ++i) {
      path_length +=
          distance(position(route->path[i]), position(route->path[i + 1]));
    }
    const double service =
        config_.service_overhead + 2.0 * path_length / kSpeedOfLight;
    const double waiting = now - arrival.time;

    in_flight.push_back({route->path});
    heap.push({now + service, sequence++, Event::Kind::Completion,
               in_flight.size() - 1});

    out.outcome.transmissivity.add(route->transmissivity);
    out.outcome.hops.add(static_cast<double>(route->path.size() - 1));
    const double fidelity = config_.memory.stored_pair_fidelity(
        route->transmissivity, waiting + service);
    out.outcome.fidelity.add(fidelity);
    out.traffic.latency.add(waiting + service);
    out.traffic.waiting.add(waiting);
    out.traffic.latency_samples.push_back(waiting + service);
    out.traffic.waiting_samples.push_back(waiting);
    finish(index, ServeDisposition::Served, &*route, waiting, service,
           fidelity);
    return true;
  };

  // Drain the backlog (FIFO) as far as capacity allows at time `now`,
  // compacting the still-waiting arrivals in place.
  const auto drain_backlog = [&](double now) {
    std::size_t kept = 0;
    for (Pending pending : backlog) {
      if (now - arrivals_[pending.arrival_index].time >
          config_.max_queue_delay) {
        finish(pending.arrival_index, ServeDisposition::DroppedDeadline,
               nullptr, 0.0, 0.0);
        continue;
      }
      const bool released = std::any_of(
          releases.begin() + static_cast<std::ptrdiff_t>(pending.stamp),
          releases.end(),
          [&](net::NodeId id) { return busy_[id] < config_.node_capacity; });
      pending.stamp = releases.size();
      if (released && try_start(pending.arrival_index, now)) continue;
      backlog[kept++] = pending;
    }
    backlog.resize(kept);
  };

  while (!heap.empty()) {
    const Event event = heap.top();
    heap.pop();
    if (event.kind == Event::Kind::Arrival) {
      if (!try_start(event.payload, event.time)) {
        // Backpressure: a full queue refuses admission outright.
        if (backlog.size() >= config_.max_backlog) {
          finish(event.payload, ServeDisposition::RejectedCapacity, nullptr,
                 0.0, 0.0);
        } else {
          backlog.push_back({event.payload, releases.size()});
          out.traffic.peak_queue_depth =
              std::max(out.traffic.peak_queue_depth, backlog.size());
        }
      }
    } else {
      for (const net::NodeId id : in_flight[event.payload].nodes) {
        QNTN_REQUIRE(busy_[id] > 0, "capacity accounting underflow");
        const bool saturated = busy_[id] >= config_.node_capacity;
        --busy_[id];
        if (saturated && busy_[id] < config_.node_capacity) {
          releases.push_back(id);
        }
      }
      drain_backlog(event.time);
    }
  }
  // Whatever is still queued when the window's work drains never got
  // served: the window boundary is its deadline.
  for (const Pending& pending : backlog) {
    finish(pending.arrival_index, ServeDisposition::DroppedDeadline, nullptr,
           0.0, 0.0);
  }
  out.traffic.peak_utilisation.add(peak_utilisation);
  obs::count("sim.reroute_gated", reroute_.gated - gated_before);
  obs::count("sim.reroute_trees", reroute_.trees - trees_before);
  return out;
}

}  // namespace qntn::sim
