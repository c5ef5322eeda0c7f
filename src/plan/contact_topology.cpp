#include "plan/contact_topology.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace qntn::plan {

namespace {

struct Event {
  double time = 0.0;
  std::size_t window = 0;
  bool open = false;
};

/// Union-find root of v, halving the path on the way.
net::NodeId find_root(std::vector<net::NodeId>& parent, net::NodeId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

void unite(std::vector<net::NodeId>& parent, net::NodeId a, net::NodeId b) {
  parent[find_root(parent, a)] = find_root(parent, b);
}

}  // namespace

ContactPlanTopology::ContactPlanTopology(const ContactPlan& plan,
                                         const sim::NetworkModel& model)
    : plan_(plan), model_(model), links_(model, plan.policy()) {
  const std::vector<ContactWindow>& windows = plan_.windows();
  QNTN_REQUIRE(windows.size() < std::numeric_limits<std::uint32_t>::max(),
               "contact plan window count overflows the event encoding");
  std::vector<Event> events;
  events.reserve(2 * windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    events.push_back({windows[w].start, w, /*open=*/true});
    // Windows clipped at the horizon never close: the link is still up at
    // t == horizon (as the per-step rebuild sees it); later queries are
    // extrapolation either way.
    if (windows[w].end < plan_.horizon()) {
      events.push_back({windows[w].end, w, /*open=*/false});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.open < b.open;  // closes first: windows are half-open [start, end)
  });
  event_count_ = events.size();

  // Sweep the timeline once: every distinct event time opens a new epoch
  // whose active set is the state after applying all events at that time.
  // A query at exactly an event time must see those events applied (epoch e
  // covers [starts[e], starts[e+1])), and epoch 0 — before any event — is
  // empty. Only the event stream and periodic checkpoints are stored;
  // active_windows() reconstructs any epoch from those.
  epoch_starts_.reserve(events.size() + 1);
  events_.reserve(events.size());
  epoch_event_offsets_.reserve(events.size() + 2);
  epoch_starts_.push_back(-std::numeric_limits<double>::infinity());
  epoch_event_offsets_.push_back(0);
  epoch_event_offsets_.push_back(0);  // epoch 0: no events, nothing active
  checkpoint_offsets_.push_back(0);
  checkpoint_offsets_.push_back(0);  // checkpoint for epoch 0: empty
  std::vector<char> active(windows.size(), 0);
  std::size_t i = 0;
  while (i < events.size()) {
    const double time = events[i].time;
    for (; i < events.size() && events[i].time == time; ++i) {
      active[events[i].window] = events[i].open ? 1 : 0;
      events_.push_back(
          {static_cast<std::uint32_t>(events[i].window), events[i].open});
    }
    epoch_starts_.push_back(time);
    epoch_event_offsets_.push_back(events_.size());
    const std::size_t epoch = epoch_starts_.size() - 1;
    if (epoch % kCheckpointStride == 0) {
      for (std::uint32_t w = 0; w < windows.size(); ++w) {
        if (active[w] != 0) checkpoint_ids_.push_back(w);
      }
      checkpoint_offsets_.push_back(checkpoint_ids_.size());
    }
  }

  for (const sim::Node& node : model_.nodes()) {
    skeleton_.add_node(node.name);
  }
  for (const sim::LinkRecord& link : plan_.static_links()) {
    skeleton_.add_edge(link.a, link.b, link.transmissivity);
  }
  static_edge_count_ = skeleton_.edge_count();

  static_roots_.resize(model_.node_count());
  for (net::NodeId v = 0; v < static_roots_.size(); ++v) static_roots_[v] = v;
  for (const sim::LinkRecord& link : plan_.static_links()) {
    unite(static_roots_, link.a, link.b);
  }
  for (net::NodeId v = 0; v < static_roots_.size(); ++v) {
    static_roots_[v] = find_root(static_roots_, v);
  }
}

std::size_t ContactPlanTopology::epoch_of(double t) const {
  // Largest epoch with start <= t; starts[0] = -inf guarantees a hit.
  const auto it =
      std::upper_bound(epoch_starts_.begin(), epoch_starts_.end(), t);
  return static_cast<std::size_t>(it - epoch_starts_.begin()) - 1;
}

void ContactPlanTopology::active_windows(std::size_t epoch,
                                         std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t checkpoint = epoch / kCheckpointStride;
  const std::size_t ck_begin = checkpoint_offsets_[checkpoint];
  const std::size_t ck_end = checkpoint_offsets_[checkpoint + 1];
  const std::size_t ev_begin =
      epoch_event_offsets_[checkpoint * kCheckpointStride + 1];
  const std::size_t ev_end = epoch_event_offsets_[epoch + 1];
  if (ev_begin == ev_end) {
    out.assign(checkpoint_ids_.begin() + static_cast<std::ptrdiff_t>(ck_begin),
               checkpoint_ids_.begin() + static_cast<std::ptrdiff_t>(ck_end));
    return;
  }

  // Net effect of the events since the checkpoint, last event per window
  // winning (a window can close and reopen inside the span).
  std::vector<TimelineEvent> touched;
  touched.reserve(ev_end - ev_begin);
  for (std::size_t e = ev_begin; e < ev_end; ++e) {
    const TimelineEvent& event = events_[e];
    auto it = std::find_if(touched.begin(), touched.end(),
                           [&event](const TimelineEvent& seen) {
                             return seen.window == event.window;
                           });
    if (it == touched.end()) {
      touched.push_back(event);
    } else {
      it->open = event.open;
    }
  }
  std::sort(touched.begin(), touched.end(),
            [](const TimelineEvent& a, const TimelineEvent& b) {
              return a.window < b.window;
            });

  // Ascending merge of the checkpoint set with the touched windows: touched
  // state overrides checkpoint membership, everything else carries over.
  out.reserve((ck_end - ck_begin) + touched.size());
  std::size_t ck = ck_begin;
  std::size_t to = 0;
  while (ck < ck_end && to < touched.size()) {
    const std::uint32_t ck_id = checkpoint_ids_[ck];
    if (ck_id < touched[to].window) {
      out.push_back(ck_id);
      ++ck;
    } else if (touched[to].window < ck_id) {
      if (touched[to].open) out.push_back(touched[to].window);
      ++to;
    } else {
      if (touched[to].open) out.push_back(ck_id);
      ++ck;
      ++to;
    }
  }
  for (; ck < ck_end; ++ck) out.push_back(checkpoint_ids_[ck]);
  for (; to < touched.size(); ++to) {
    if (touched[to].open) out.push_back(touched[to].window);
  }
}

std::vector<std::size_t> ContactPlanTopology::epoch_window_ids(
    std::size_t epoch) const {
  std::vector<std::size_t> ids;
  active_windows(epoch, ids);
  return ids;
}

std::vector<sim::LinkRecord> ContactPlanTopology::links_at(double t) const {
  obs::count("plan.graph_queries");
  std::vector<std::size_t> ids;
  active_windows(epoch_of(t), ids);
  std::vector<sim::LinkRecord> links = plan_.static_links();
  const std::vector<ContactWindow>& windows = plan_.windows();
  std::vector<Vec3> sat_pos;
  links_.satellite_positions(t, sat_pos);
  links.reserve(links.size() + ids.size());
  for (const std::size_t id : ids) {
    const ContactWindow& w = windows[id];
    links.push_back({w.a, w.b, links_.dynamic_eta(w.a, w.b, sat_pos)});
  }
  return links;
}

bool ContactPlanTopology::lans_connected_at(const sim::NetworkModel& model,
                                            double t) const {
  QNTN_REQUIRE(model.lan_count() >= 1, "model has no LANs");
  QNTN_REQUIRE(model.node_count() == static_roots_.size(),
               "connectivity query against a different model");
  std::vector<std::size_t> ids;
  active_windows(epoch_of(t), ids);
  std::vector<net::NodeId> parent = static_roots_;
  const std::vector<ContactWindow>& windows = plan_.windows();
  for (const std::size_t id : ids) unite(parent, windows[id].a, windows[id].b);
  const net::NodeId reference = find_root(parent, model.lan_nodes(0).front());
  for (std::size_t lan = 1; lan < model.lan_count(); ++lan) {
    if (find_root(parent, model.lan_nodes(lan).front()) != reference) {
      return false;
    }
  }
  return true;
}

void ContactPlanTopology::append_dynamic_edges(
    std::size_t epoch, double t, net::Graph& graph,
    std::vector<std::size_t>& ids) const {
  active_windows(epoch, ids);
  const std::vector<ContactWindow>& windows = plan_.windows();
  std::vector<Vec3> sat_pos;
  links_.satellite_positions(t, sat_pos);
  for (const std::size_t id : ids) {
    const ContactWindow& w = windows[id];
    graph.add_edge(w.a, w.b, links_.dynamic_eta(w.a, w.b, sat_pos));
  }
}

net::Graph ContactPlanTopology::graph_at(double t) const {
  const obs::Span span("plan.graph_at");
  obs::count("plan.graph_queries");
  // A fresh materialisation can never reuse a cached epoch, so it counts
  // as a build: plan.graph_queries = plan.epoch_hits + plan.epoch_builds
  // holds across both query paths.
  obs::count("plan.epoch_builds");
  net::Graph graph = skeleton_;
  std::vector<std::size_t> ids;
  append_dynamic_edges(epoch_of(t), t, graph, ids);
  return graph;
}

void ContactPlanTopology::snapshot_at(double t,
                                      sim::TopologySnapshot& snap) const {
  const obs::Span span("plan.graph_at");
  obs::count("plan.graph_queries");
  const std::size_t epoch = epoch_of(t);

  if (snap.owner == this && snap.epoch == epoch) {
    // Same epoch: the edge set is unchanged, only etas moved. Rewrite the
    // dynamic tail in place — dynamic_tags records the window behind each
    // dynamic edge, in edge order.
    const std::vector<ContactWindow>& windows = plan_.windows();
    std::vector<Vec3> sat_pos;
    links_.satellite_positions(t, sat_pos);
    for (std::size_t i = 0; i < snap.dynamic_tags.size(); ++i) {
      const ContactWindow& w = windows[snap.dynamic_tags[i]];
      snap.graph.set_edge_transmissivity(snap.dynamic_base + i,
                                         links_.dynamic_eta(w.a, w.b, sat_pos));
    }
    obs::count("plan.epoch_hits");
    return;
  }

  if (snap.owner == this) {
    // Slot already holds this provider's skeleton + some dynamic tail: drop
    // the tail and re-append, reusing the graph's storage (no allocation
    // once the adjacency vectors have grown to steady state).
    snap.graph.truncate_edges(static_edge_count_);
  } else {
    snap.graph = skeleton_;
  }
  append_dynamic_edges(epoch, t, snap.graph, snap.dynamic_tags);
  snap.epoch = epoch;
  snap.owner = this;
  snap.dynamic_base = static_edge_count_;
  obs::count("plan.epoch_builds");
}

}  // namespace qntn::plan
