// Differential oracle for the traffic engine's backlog drain. The engine
// retries a queued arrival only when a node that left the saturated set
// since its last failure is still unsaturated; the reference below is the
// engine's window loop as it was before, retrying every queued arrival at
// every completion (its drain kept verbatim). Both run on random graphs
// with small capacities and heavy arrivals, so the backlog fills, deadlines
// expire and saturation reroutes run; every output must match bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "net/routing.hpp"
#include "sim/network_model.hpp"
#include "sim/traffic.hpp"

namespace qntn::sim {
namespace {

/// A fresh random graph over the model's nodes per query time: a sparse
/// mesh of relays so that routes share nodes and saturate.
class RandomTopology final : public TopologyProvider {
 public:
  RandomTopology(const NetworkModel& model, std::uint64_t seed)
      : model_(model), seed_(seed) {}

  [[nodiscard]] net::Graph graph_at(double t) const override {
    Rng rng(seed_ + static_cast<std::uint64_t>(t * 1000.0));
    net::Graph graph;
    for (const Node& node : model_.nodes()) graph.add_node(node.name);
    const std::size_t n = model_.node_count();
    for (net::NodeId a = 0; a < n; ++a) {
      for (net::NodeId b = a + 1; b < n; ++b) {
        if (rng.uniform(0.0, 1.0) < 0.3) {
          graph.add_edge(a, b, rng.uniform(0.3, 1.0));
        }
      }
    }
    return graph;
  }

 private:
  const NetworkModel& model_;
  std::uint64_t seed_;
};

// ---- The reference: the engine's window loop before the release log. ----

struct Arrival {
  double time = 0.0;
  net::NodeId source = 0;
  net::NodeId destination = 0;
};

std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Arrival> draw_arrivals(const NetworkModel& model,
                                   const TrafficConfig& config, double window,
                                   std::size_t step, double t0) {
  std::vector<Arrival> arrivals;
  const std::size_t lan_count = model.lan_count();
  for (std::size_t lan = 0; lan < lan_count; ++lan) {
    const auto& sources = model.lan_nodes(lan);
    std::vector<net::NodeId> peers;
    for (std::size_t other = 0; other < lan_count; ++other) {
      if (other == lan) continue;
      const auto& nodes = model.lan_nodes(other);
      peers.insert(peers.end(), nodes.begin(), nodes.end());
    }
    if (sources.empty() || peers.empty()) continue;
    const bool day =
        config.sun.solar_elevation(model.node(sources.front()).position, t0) >
        0.0;
    const double rate =
        config.arrival_rate * (day ? 1.0 + config.diurnal_amplitude
                                   : 1.0 - config.diurnal_amplitude);
    if (rate <= 0.0) continue;
    Rng rng(substream_seed(
        config.seed, static_cast<std::uint64_t>(step) * lan_count + lan + 1));
    double offset = 0.0;
    for (;;) {
      const double u = rng.uniform(1e-12, 1.0);
      offset += -std::log(u) / rate;
      if (offset >= window) break;
      Arrival arrival;
      arrival.time = t0 + offset;
      arrival.source = sources[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sources.size()) - 1))];
      arrival.destination = peers[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(peers.size()) - 1))];
      arrivals.push_back(arrival);
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
  return arrivals;
}

struct Event {
  double time = 0.0;
  std::uint64_t sequence = 0;
  enum class Kind { Arrival, Completion } kind = Kind::Arrival;
  std::size_t payload = 0;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

ServeStepResult reference_serve(const NetworkModel& model,
                                const TopologyProvider& topology,
                                const TrafficConfig& config, double window,
                                std::size_t step, double t) {
  const net::Graph graph = topology.graph_at(t);
  std::vector<double> edge_costs;
  net::compute_edge_costs(graph, config.metric, edge_costs);
  std::vector<std::optional<net::ShortestPathTree>> trees(graph.node_count());
  const auto tree_for =
      [&](net::NodeId source) -> const net::ShortestPathTree& {
    if (!trees[source]) {
      trees[source] = net::bellman_ford_tree(graph, source, edge_costs);
    }
    return *trees[source];
  };
  const std::vector<Arrival> arrivals =
      draw_arrivals(model, config, window, step, t);

  ServeStepResult out;
  out.outcome.issued = arrivals.size();
  out.requests.resize(arrivals.size());
  double peak_utilisation = 0.0;
  std::vector<std::size_t> busy(model.node_count(), 0);
  net::RerouteScratch reroute;
  std::vector<std::vector<net::NodeId>> in_flight;
  struct Pending {
    std::size_t arrival_index = 0;
  };
  std::deque<Pending> backlog;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::uint64_t sequence = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    heap.push({arrivals[i].time, sequence++, Event::Kind::Arrival, i});
  }

  const auto finish = [&](std::size_t index, ServeDisposition disposition,
                          const net::Route* route, double waiting,
                          double service) {
    RequestRecord& rec = out.requests[index];
    rec.disposition = disposition;
    rec.source = arrivals[index].source;
    rec.destination = arrivals[index].destination;
    if (disposition == ServeDisposition::Served) {
      rec.transmissivity = route->transmissivity;
      rec.hops = route->path.size() - 1;
      rec.latency = waiting + service;
      rec.waiting = waiting;
      if (route->path.size() > 2) rec.relay = route->path[1];
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

  const auto try_start = [&](std::size_t index, double now) -> bool {
    const Arrival& arrival = arrivals[index];
    if (now == arrival.time) {
      if (graph.neighbors(arrival.source).empty() ||
          graph.neighbors(arrival.destination).empty()) {
        finish(index, ServeDisposition::Isolated, nullptr, 0.0, 0.0);
        return true;
      }
    }
    const net::ShortestPathTree& tree = tree_for(arrival.source);
    if (tree.cost[arrival.destination] ==
        std::numeric_limits<double>::infinity()) {
      finish(index, ServeDisposition::NoPath, nullptr, 0.0, 0.0);
      return true;
    }
    if (busy[arrival.source] >= config.node_capacity ||
        busy[arrival.destination] >= config.node_capacity) {
      return false;
    }
    bool saturated = false;
    for (net::NodeId id = arrival.destination; id != arrival.source;
         id = *tree.previous[id]) {
      if (busy[id] >= config.node_capacity) {
        saturated = true;
        break;
      }
    }
    auto route = saturated
                     ? net::reroute_around_saturated(
                           graph, edge_costs, busy, config.node_capacity,
                           arrival.source, arrival.destination, reroute)
                     : net::route_from_tree(graph, tree, arrival.source,
                                            arrival.destination);
    if (!route.has_value()) return false;
    for (const net::NodeId id : route->path) ++busy[id];
    for (const net::NodeId id : route->path) {
      peak_utilisation = std::max(
          peak_utilisation, static_cast<double>(busy[id]) /
                                static_cast<double>(config.node_capacity));
    }
    double path_length = 0.0;
    for (std::size_t i = 0; i + 1 < route->path.size(); ++i) {
      path_length += distance(model.position_ecef(route->path[i], t),
                              model.position_ecef(route->path[i + 1], t));
    }
    const double service =
        config.service_overhead + 2.0 * path_length / kSpeedOfLight;
    const double waiting = now - arrival.time;
    in_flight.push_back(route->path);
    heap.push({now + service, sequence++, Event::Kind::Completion,
               in_flight.size() - 1});
    out.outcome.transmissivity.add(route->transmissivity);
    out.outcome.hops.add(static_cast<double>(route->path.size() - 1));
    out.outcome.fidelity.add(config.memory.stored_pair_fidelity(
        route->transmissivity, waiting + service));
    out.traffic.latency.add(waiting + service);
    out.traffic.waiting.add(waiting);
    out.traffic.latency_samples.push_back(waiting + service);
    out.traffic.waiting_samples.push_back(waiting);
    finish(index, ServeDisposition::Served, &*route, waiting, service);
    return true;
  };

  // The drain as it was: every queued arrival is retried at every
  // completion.
  const auto drain_backlog = [&](double now) {
    std::deque<Pending> still_waiting;
    while (!backlog.empty()) {
      const Pending pending = backlog.front();
      backlog.pop_front();
      if (now - arrivals[pending.arrival_index].time >
          config.max_queue_delay) {
        finish(pending.arrival_index, ServeDisposition::DroppedDeadline,
               nullptr, 0.0, 0.0);
        continue;
      }
      if (!try_start(pending.arrival_index, now)) {
        still_waiting.push_back(pending);
      }
    }
    backlog = std::move(still_waiting);
  };

  while (!heap.empty()) {
    const Event event = heap.top();
    heap.pop();
    if (event.kind == Event::Kind::Arrival) {
      if (!try_start(event.payload, event.time)) {
        if (backlog.size() >= config.max_backlog) {
          finish(event.payload, ServeDisposition::RejectedCapacity, nullptr,
                 0.0, 0.0);
        } else {
          backlog.push_back({event.payload});
          out.traffic.peak_queue_depth =
              std::max(out.traffic.peak_queue_depth, backlog.size());
        }
      }
    } else {
      for (const net::NodeId id : in_flight[event.payload]) --busy[id];
      drain_backlog(event.time);
    }
  }
  while (!backlog.empty()) {
    finish(backlog.front().arrival_index, ServeDisposition::DroppedDeadline,
           nullptr, 0.0, 0.0);
    backlog.pop_front();
  }
  out.traffic.peak_utilisation.add(peak_utilisation);
  return out;
}

// ---- Comparison. ----

void expect_same_stats(const RunningStats& a, const RunningStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_identical(const ServeStepResult& got, const ServeStepResult& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.outcome.issued, want.outcome.issued);
  EXPECT_EQ(got.outcome.served, want.outcome.served);
  EXPECT_EQ(got.outcome.no_path, want.outcome.no_path);
  EXPECT_EQ(got.outcome.isolated, want.outcome.isolated);
  EXPECT_EQ(got.outcome.rejected_capacity, want.outcome.rejected_capacity);
  EXPECT_EQ(got.outcome.dropped_deadline, want.outcome.dropped_deadline);
  expect_same_stats(got.outcome.fidelity, want.outcome.fidelity, "fidelity");
  expect_same_stats(got.outcome.transmissivity, want.outcome.transmissivity,
                    "transmissivity");
  expect_same_stats(got.outcome.hops, want.outcome.hops, "hops");
  expect_same_stats(got.traffic.latency, want.traffic.latency, "latency");
  expect_same_stats(got.traffic.waiting, want.traffic.waiting, "waiting");
  EXPECT_EQ(got.traffic.latency_samples, want.traffic.latency_samples);
  EXPECT_EQ(got.traffic.waiting_samples, want.traffic.waiting_samples);
  EXPECT_EQ(got.traffic.peak_queue_depth, want.traffic.peak_queue_depth);
  expect_same_stats(got.traffic.peak_utilisation,
                    want.traffic.peak_utilisation, "peak_utilisation");
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < want.requests.size(); ++i) {
    const RequestRecord& g = got.requests[i];
    const RequestRecord& w = want.requests[i];
    ASSERT_EQ(g.disposition, w.disposition) << "request " << i;
    EXPECT_EQ(g.source, w.source) << "request " << i;
    EXPECT_EQ(g.destination, w.destination) << "request " << i;
    EXPECT_EQ(g.transmissivity, w.transmissivity) << "request " << i;
    EXPECT_EQ(g.hops, w.hops) << "request " << i;
    EXPECT_EQ(g.relay, w.relay) << "request " << i;
    EXPECT_EQ(g.latency, w.latency) << "request " << i;
    EXPECT_EQ(g.waiting, w.waiting) << "request " << i;
  }
}

/// Three LANs of three ground nodes and five HAP relays.
NetworkModel relay_model() {
  NetworkModel model;
  const channel::OpticalTerminal terminal{1.2, 1e-7};
  for (int lan = 0; lan < 3; ++lan) {
    std::vector<geo::Geodetic> sites;
    for (int i = 0; i < 3; ++i) {
      sites.push_back(geo::Geodetic::from_degrees(35.0 + lan, -90.0 + 3 * lan,
                                                  10.0 * i));
    }
    model.add_lan("LAN" + std::to_string(lan), sites, terminal);
  }
  for (int h = 0; h < 5; ++h) {
    model.add_hap("HAP" + std::to_string(h),
                  geo::Geodetic::from_degrees(35.5 + 0.3 * h, -87.0, 20'000.0),
                  terminal);
  }
  return model;
}

TEST(TrafficDrain, ReleaseLogMatchesRetryEverythingOnSaturatedWindows) {
  const NetworkModel model = relay_model();
  Rng rng(4242);
  std::size_t dropped = 0;
  std::size_t waited = 0;
  for (int trial = 0; trial < 24; ++trial) {
    TrafficConfig config;
    config.arrival_rate = rng.uniform(20.0, 400.0);
    config.node_capacity = static_cast<std::size_t>(rng.uniform_int(1, 3));
    config.service_overhead = rng.uniform(0.005, 0.08);
    config.max_queue_delay = rng.uniform(0.02, 0.5);
    config.max_backlog = static_cast<std::size_t>(rng.uniform_int(4, 300));
    config.diurnal_amplitude = rng.uniform(0.0, 1.0);
    config.metric = trial % 3 == 0 ? net::CostMetric::HopCount
                                   : net::CostMetric::InverseEta;
    config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
    const double window = rng.uniform(0.5, 3.0);
    const RandomTopology topology(
        model, static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000)));
    TrafficEngine engine(model, topology, config, window,
                         /*record_requests=*/true);
    for (std::size_t step = 0; step < 4; ++step) {
      const double t = static_cast<double>(step) * window;
      const ServeStepResult want =
          reference_serve(model, topology, config, window, step, t);
      const ServeStepResult got = engine.serve_step(step, t);
      expect_identical(got, want,
                       "trial " + std::to_string(trial) + " step " +
                           std::to_string(step));
      dropped += want.outcome.dropped_deadline;
      for (const RequestRecord& rec : want.requests) {
        if (rec.disposition == ServeDisposition::Served && rec.waiting > 0.0) {
          ++waited;
        }
      }
    }
  }
  // The windows really were saturated: requests queued, were served after
  // waiting, and expired.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(waited, 0u);
}

}  // namespace
}  // namespace qntn::sim
