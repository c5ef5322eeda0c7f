#include "em/serving.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/registry.hpp"
#include "obs/profiler.hpp"

namespace qntn::em {

void EmOptions::validate() const {
  pool.validate();
  swap.validate();
  purify.validate();
  QNTN_REQUIRE(k_paths > 0, "em k_paths must be positive");
  QNTN_REQUIRE(node_capacity > 0, "em node_capacity must be positive");
}

EntanglementManager::EntanglementManager(const EmOptions& options)
    : options_(options), pool_(options.pool) {
  options_.validate();
}

bool EntanglementManager::epoch_state_matches(const net::Graph& graph,
                                              std::size_t epoch) const {
  if (epoch == kNoEpoch || epoch != state_epoch_ ||
      graph.node_count() != state_node_count_ ||
      graph.edges().size() != state_edges_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < state_edges_.size(); ++i) {
    const net::Edge& e = graph.edges()[i];
    if (e.a != state_edges_[i].first || e.b != state_edges_[i].second) {
      return false;
    }
  }
  return true;
}

void EntanglementManager::build_epoch_state(const net::Graph& graph,
                                            std::size_t epoch) {
  ++state_stamp_;
  pool_.rebuild(graph);
  state_node_count_ = graph.node_count();
  state_edges_.clear();
  sorted_edges_.clear();
  for (std::size_t i = 0; i < graph.edges().size(); ++i) {
    const net::Edge& e = graph.edges()[i];
    state_edges_.emplace_back(e.a, e.b);
    sorted_edges_.push_back({{std::min(e.a, e.b), std::max(e.a, e.b)}, i});
  }
  std::sort(sorted_edges_.begin(), sorted_edges_.end());
  edge_index_.clear();
  for (const auto& entry : sorted_edges_) {
    if (edge_index_.empty() || edge_index_.back().first != entry.first) {
      edge_index_.push_back(entry);
    }
  }
  state_epoch_ = epoch;
}

void EntanglementManager::pick_best_edges(const net::Graph& graph) {
  // Of parallel edges keep the best eta (the routers see the same link);
  // ties keep the earlier index, so the choice is deterministic. Etas move
  // within an epoch, so this runs per snapshot over the sorted list.
  std::size_t kept = 0;
  for (const auto& entry : sorted_edges_) {
    if (kept > 0 && edge_index_[kept - 1].first == entry.first) {
      std::size_t& best = edge_index_[kept - 1].second;
      if (graph.edges()[best].transmissivity <
          graph.edges()[entry.second].transmissivity) {
        best = entry.second;
      }
    } else {
      edge_index_[kept++].second = entry.second;
    }
  }
}

void EntanglementManager::bind_batch(const std::vector<EmRequest>& requests) {
  if (requests == batch_) return;
  batch_ = requests;
  std::vector<std::size_t> order(requests.size());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  const auto key = [&requests](std::size_t r) {
    return std::make_pair(requests[r].source, requests[r].destination);
  };
  std::sort(order.begin(), order.end(), [&key](std::size_t x, std::size_t y) {
    return key(x) < key(y);
  });
  request_slot_.assign(requests.size(), 0);
  std::size_t slots = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || key(order[i - 1]) != key(order[i])) ++slots;
    request_slot_[order[i]] = slots - 1;
  }
  route_slots_.assign(slots, RouteSlot{});
}

const std::vector<net::Route>& EntanglementManager::candidates(
    std::size_t r, bool cacheable) {
  RouteSlot& slot = route_slots_[request_slot_[r]];
  if (cacheable && slot.stamp == state_stamp_) {
    obs::count("em.route_cache_hits");
    return slot.routes;
  }
  obs::count("em.route_builds");
  finder_.find(batch_[r].source, batch_[r].destination, options_.k_paths,
               slot.routes);
  slot.stamp = cacheable ? state_stamp_ : 0;
  return slot.routes;
}

EmServeResult EntanglementManager::serve(
    const net::Graph& graph, const std::vector<EmRequest>& requests,
    std::size_t epoch, quantum::FidelityConvention convention) {
  obs::Span span("em.serve", requests.size());

  const bool eta_independent =
      net::metric_is_eta_independent(options_.metric);
  const bool reuse = epoch_state_matches(graph, epoch);
  if (reuse) {
    pool_.reset_consumption();
  } else {
    build_epoch_state(graph, epoch);
  }
  if (reuse && eta_independent) {
    finder_.rebind(graph);
  } else {
    finder_.reset(graph, options_.metric);
  }
  pick_best_edges(graph);
  bind_batch(requests);
  const bool cacheable = epoch != kNoEpoch && eta_independent;
  node_load_.assign(graph.node_count(), 0);

  EmServeResult result;
  result.total = requests.size();
  result.memory_occupancy = pool_.occupancy();
  outcomes_.resize(requests.size());

  for (std::size_t r = 0; r < requests.size(); ++r) {
    const EmRequest& request = requests[r];
    EmOutcome outcome;

    if (graph.neighbors(request.source).empty() ||
        graph.neighbors(request.destination).empty()) {
      outcome.status = EmStatus::Isolated;
      ++result.unserved_isolated;
      obs::count("em.requests_isolated");
      outcomes_[r] = outcome;
      continue;
    }

    const std::vector<net::Route>& routes = candidates(r, cacheable);
    if (routes.empty()) {
      outcome.status = EmStatus::NoPath;
      ++result.unserved_no_path;
      obs::count("em.requests_no_path");
      outcomes_[r] = outcome;
      continue;
    }

    bool committed = false;
    for (std::size_t route_index = 0;
         route_index < routes.size() && !committed; ++route_index) {
      const net::Route& route = routes[route_index];
      const std::size_t hops = route.path.size() - 1;

      // Relay capacity: every interior node performs one BSM.
      bool relays_free = true;
      for (std::size_t i = 1; i + 1 < route.path.size(); ++i) {
        if (node_load_[route.path[i]] >= options_.node_capacity) {
          relays_free = false;
          break;
        }
      }
      if (!relays_free) continue;

      // Re-price the route's hops from the *current* graph: cached routes
      // hold the epoch's structure, but etas vary per snapshot.
      hop_edges_.clear();
      hop_etas_.clear();
      bool edges_present = true;
      for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
        const auto key = std::make_pair(
            std::min(route.path[i], route.path[i + 1]),
            std::max(route.path[i], route.path[i + 1]));
        const auto it = std::lower_bound(edge_index_.begin(),
                                         edge_index_.end(),
                                         std::make_pair(key, std::size_t{0}));
        if (it == edge_index_.end() || it->first != key) {
          edges_present = false;
          break;
        }
        hop_edges_.push_back(it->second);
        hop_etas_.push_back(graph.edges()[it->second].transmissivity);
      }
      if (!edges_present) continue;

      const SwapPlan swap_plan = plan_swap_tree(hops, options_.swap);

      // Every hop pair sits in memory from its buffered age until the last
      // heralding round of the tree completes.
      hop_durations_.clear();
      for (const std::size_t edge : hop_edges_) {
        if (pool_.available(edge) == 0) break;
        hop_durations_.push_back(pool_.next_age(edge) +
                                 swap_plan.heralding_delay);
      }
      if (hop_durations_.size() != hops) continue;  // a buffer ran dry

      const double swapped = swapped_chain_fidelity(
          hop_etas_, hop_durations_, options_.pool.memory, convention);
      const PurifyPlan purify_plan =
          plan_purification(swapped, options_.purify, convention);

      // Commit: consume pairs_per_hop buffered pairs on every hop, then
      // charge the relays. All-or-nothing: availability is checked for the
      // full bill first (the hops of a simple path are distinct edges, so
      // the checks are independent) and only then consumed.
      bool buffers_pay = true;
      for (const std::size_t edge : hop_edges_) {
        if (pool_.available(edge) < purify_plan.pairs_per_hop) {
          buffers_pay = false;
          break;
        }
      }
      if (!buffers_pay) continue;
      for (const std::size_t edge : hop_edges_) {
        const bool consumed =
            pool_.try_consume(edge, purify_plan.pairs_per_hop);
        QNTN_REQUIRE(consumed, "em buffer commit must be all-or-nothing");
      }
      for (std::size_t i = 1; i + 1 < route.path.size(); ++i) {
        ++node_load_[route.path[i]];
      }

      outcome.status = EmStatus::Served;
      outcome.fidelity = purify_plan.fidelity;
      outcome.transmissivity = chain_transmissivity(hop_etas_);
      outcome.hops = hops;
      outcome.swaps = swap_plan.swaps;
      outcome.swap_depth = swap_plan.depth;
      outcome.purification_rounds = purify_plan.rounds;
      outcome.pairs_consumed = purify_plan.pairs_per_hop * hops;
      outcome.route_index = route_index;
      outcome.slo_met = purify_plan.slo_met;
      // Classical latency: the tree's heralding rounds plus one two-way
      // exchange per purification round.
      outcome.latency =
          swap_plan.heralding_delay +
          static_cast<double>(purify_plan.rounds) *
              options_.swap.heralding_latency;
      if (route.path.size() > 2) outcome.relay = route.path[1];
      committed = true;
    }

    if (committed) {
      ++result.served;
      result.swaps += outcome.swaps;
      result.purification_rounds += outcome.purification_rounds;
      result.pairs_consumed += outcome.pairs_consumed;
      if (outcome.slo_met) ++result.slo_met;
      if (outcome.route_index > 0) {
        ++result.spilled;
        obs::count("em.requests_spilled");
      }
      result.fidelity.add(outcome.fidelity);
      result.transmissivity.add(outcome.transmissivity);
      result.hops.add(static_cast<double>(outcome.hops));
      result.latency.add(outcome.latency);
      result.swap_depth.add(static_cast<double>(outcome.swap_depth));
      obs::count("em.requests_served");
      obs::count("em.swaps", outcome.swaps);
      obs::count("em.purification_rounds", outcome.purification_rounds);
      obs::count("em.pairs_consumed", outcome.pairs_consumed);
    } else {
      outcome.status = EmStatus::Congested;
      ++result.unserved_congested;
      obs::count("em.requests_congested");
    }
    outcomes_[r] = outcome;
  }

  obs::observe("em.memory_occupancy", result.memory_occupancy);
  return result;
}

}  // namespace qntn::em
