#include "sim/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "sim/serving_engine.hpp"

namespace qntn::sim {

namespace {

/// Snapshots must stay inside the coverage day (ephemerides only span it);
/// returns the clamped interval and warns when the configured one walks
/// off the end. The default 100 x 864 s exactly tiles one day and is
/// untouched (the last snapshot sits at 99 x 864 s).
double effective_step_interval(const ScenarioConfig& config) {
  if (config.request_steps == 0) return config.request_step_interval;
  const double span = static_cast<double>(config.request_steps) *
                      config.request_step_interval;
  if (span <= config.coverage.duration + 1e-9) {
    return config.request_step_interval;
  }
  const double clamped =
      config.coverage.duration / static_cast<double>(config.request_steps);
  std::fprintf(stderr,
               "qntn: warning: %zu request snapshots x %.3f s span %.0f s "
               "but the scenario day is %.0f s; clamping the snapshot "
               "interval to %.3f s\n",
               config.request_steps, config.request_step_interval, span,
               config.coverage.duration, clamped);
  obs::count("scenario.interval_clamped");
  return clamped;
}

}  // namespace

ScenarioResult run_scenario(const NetworkModel& model,
                            const TopologyProvider& topology,
                            const ScenarioConfig& config) {
  const obs::ScopedRegistry ambient(config.registry);
  const obs::ScopedProfiler profiling(config.profiler);
  const obs::Span run_span("sim.run_scenario", config.request_steps);
  obs::TraceSink* trace = config.trace;
  const bool trace_snapshots =
      trace != nullptr && trace->wants(obs::TraceLevel::Snapshots);
  const bool trace_requests =
      trace != nullptr && trace->wants(obs::TraceLevel::Requests);

  const double interval = effective_step_interval(config);

  if (trace_snapshots) {
    trace->emit(obs::TraceEvent("run_start")
                    .field("request_count",
                           static_cast<std::uint64_t>(config.request_count))
                    .field("request_steps",
                           static_cast<std::uint64_t>(config.request_steps))
                    .field("interval_s", interval)
                    .field("seed", config.request_seed));
  }

  ScenarioResult result;
  {
    const obs::ScopedTimer timer("time.coverage_s");
    const obs::Span span("sim.coverage");
    CoverageOptions coverage = config.coverage;
    coverage.pool = config.pool;
    coverage.registry = config.registry;
    coverage.profiler = config.profiler;
    result.coverage = analyze_coverage(model, topology, coverage);
  }
  if (trace_snapshots) {
    trace->emit(obs::TraceEvent("coverage")
                    .field("percent", result.coverage.percent)
                    .field("covered_s", result.coverage.covered_s));
  }

  Rng rng(config.request_seed);
  const std::vector<Request> requests =
      generate_requests(model, config.request_count, rng);

  // Last relay each request was served over, for handover accounting
  // (fixed-batch modes only; open arrivals have no cross-step identity).
  std::vector<std::optional<net::NodeId>> last_relay(requests.size());

  const obs::ScopedTimer serving_timer("time.serving_s");
  const obs::Span serving_span("sim.serving", config.request_steps);

  const bool em_mode = config.serving_mode == ServingMode::Entanglement;
  const bool traffic_mode = config.serving_mode == ServingMode::Traffic;
  // Fixed-batch modes re-serve one request batch at every step; open
  // arrivals have no cross-step identity.
  const bool fixed_batch = !traffic_mode;

  // The per-step merge shared by the serial and parallel paths and by all
  // three serving engines: it replays the historical single-loop
  // accumulation in step order, so every path produces bit-identical stats,
  // counters, handovers, and trace bytes.
  const auto merge = [&](std::size_t step, const ServeStepResult& sr) {
    const double t = static_cast<double>(step) * interval;
    const ServeOutcome& oc = sr.outcome;
    std::size_t step_handovers = 0;
    for (std::size_t i = 0; i < sr.requests.size(); ++i) {
      const RequestRecord& rec = sr.requests[i];
      const bool served_rec = rec.disposition == ServeDisposition::Served;
      if (fixed_batch) {
        if (served_rec) {
          if (last_relay[i].has_value() && rec.relay.has_value() &&
              *last_relay[i] != *rec.relay) {
            ++step_handovers;
            if (trace_requests) {
              trace->emit(
                  obs::TraceEvent("handover")
                      .field("step", static_cast<std::uint64_t>(step))
                      .field("t", t)
                      .field("id", static_cast<std::uint64_t>(i))
                      .field("from",
                             static_cast<std::uint64_t>(*last_relay[i]))
                      .field("to", static_cast<std::uint64_t>(*rec.relay)));
            }
          }
          last_relay[i] = rec.relay;
        } else {
          last_relay[i].reset();
        }
      }
      if (trace_requests) {
        const net::NodeId src = fixed_batch ? requests[i].source : rec.source;
        const net::NodeId dst =
            fixed_batch ? requests[i].destination : rec.destination;
        obs::TraceEvent event("request");
        event.field("step", static_cast<std::uint64_t>(step))
            .field("t", t)
            .field("id", static_cast<std::uint64_t>(i))
            .field("src", static_cast<std::uint64_t>(src))
            .field("dst", static_cast<std::uint64_t>(dst))
            .field("status", serve_disposition_name(rec.disposition));
        if (served_rec) {
          event.field("eta", rec.transmissivity)
              .field("fidelity", rec.fidelity)
              .field("hops", static_cast<std::uint64_t>(rec.hops))
              .field("relay",
                     static_cast<std::uint64_t>(rec.relay.value_or(dst)));
          if (em_mode) {
            event.field("swaps", static_cast<std::uint64_t>(rec.em.swaps))
                .field("depth", static_cast<std::uint64_t>(rec.em.swap_depth))
                .field("purify", static_cast<std::uint64_t>(
                                     rec.em.purification_rounds))
                .field("pairs",
                       static_cast<std::uint64_t>(rec.em.pairs_consumed))
                .field("route",
                       static_cast<std::uint64_t>(rec.em.route_index))
                .field("latency", rec.latency);
          }
          if (traffic_mode) {
            event.field("latency", rec.latency).field("waiting", rec.waiting);
          }
        }
        trace->emit(event);
      }
    }

    result.served_per_step.add(oc.served_fraction());
    result.totals.merge(oc);
    result.em.merge(sr.em);
    result.traffic.merge(sr.traffic);
    result.handovers += step_handovers;

    obs::count("scenario.snapshots");
    obs::count("scenario.requests_issued", oc.issued);
    obs::count("scenario.requests_served", oc.served);
    obs::count("scenario.requests_no_path", oc.no_path);
    obs::count("scenario.requests_isolated", oc.isolated);
    if (em_mode) {
      obs::count("scenario.requests_congested", oc.congested);
    }
    if (traffic_mode) {
      obs::count("scenario.requests_rejected_capacity", oc.rejected_capacity);
      obs::count("scenario.requests_dropped_deadline", oc.dropped_deadline);
    }
    if (fixed_batch) {
      obs::count("scenario.handovers", step_handovers);
    }

    if (trace_snapshots) {
      obs::TraceEvent event("snapshot");
      event.field("step", static_cast<std::uint64_t>(step))
          .field("t", t)
          .field("served", static_cast<std::uint64_t>(oc.served))
          .field("total", static_cast<std::uint64_t>(oc.issued))
          .field("no_path", static_cast<std::uint64_t>(oc.no_path))
          .field("isolated", static_cast<std::uint64_t>(oc.isolated));
      if (em_mode) {
        event.field("congested", static_cast<std::uint64_t>(oc.congested))
            .field("occupancy", sr.em.memory_occupancy.mean());
      }
      if (traffic_mode) {
        event
            .field("rejected_capacity",
                   static_cast<std::uint64_t>(oc.rejected_capacity))
            .field("dropped_deadline",
                   static_cast<std::uint64_t>(oc.dropped_deadline))
            .field("queue_peak",
                   static_cast<std::uint64_t>(sr.traffic.peak_queue_depth))
            .field("utilisation", sr.traffic.peak_utilisation.mean());
      }
      if (fixed_batch) {
        event.field("handovers", static_cast<std::uint64_t>(step_handovers));
      }
      trace->emit(event);
    }
  };

  // The traffic engine's event windows are heavy enough to chunk on any
  // provider; the fixed-batch engines only profit from chunking when the
  // provider is epoch-partitioned (PR 4's condition).
  const bool parallel_engine =
      config.pool != nullptr && (topology.epoch_count() > 0 || traffic_mode);
  if (parallel_engine) {
    // Parallel snapshot engine, in bounded rounds: each round hands every
    // worker slot a run of kRoundSteps consecutive steps, the workers fill
    // preallocated per-step slots (no shared mutable state), and the main
    // thread merges the round in step order and frees its slots before the
    // next one. Memory stays at one round of results however long the day.
    // A slot keeps its engine, and with it the per-epoch caches, across
    // rounds; with one worker that is exactly the serial step sequence.
    constexpr std::size_t kRoundSteps = 64;
    const std::size_t slots = config.pool->size();
    const std::size_t round_size = slots * kRoundSteps;
    std::vector<std::unique_ptr<ServingEngine>> engines(slots);
    std::vector<ServeStepResult> per_step(
        std::min(round_size, config.request_steps));
    for (std::size_t round = 0; round < config.request_steps;
         round += round_size) {
      const std::size_t round_end =
          std::min(round + round_size, config.request_steps);
      parallel_for_index(*config.pool, slots, [&](std::size_t slot) {
        const std::size_t begin =
            std::min(round + slot * kRoundSteps, round_end);
        const std::size_t end = std::min(begin + kRoundSteps, round_end);
        if (begin == end) return;
        const obs::ScopedRegistry worker_registry(config.registry);
        const obs::ScopedProfiler worker_profiler(config.profiler);
        const obs::Span span("sim.serve_chunk", end - begin);
        if (engines[slot] == nullptr) {
          engines[slot] = make_serving_engine(model, topology, requests,
                                              config, interval, trace_requests);
        }
        for (std::size_t step = begin; step < end; ++step) {
          per_step[step - round] = engines[slot]->serve_step(
              step, static_cast<double>(step) * interval);
        }
      });
      for (std::size_t step = round; step < round_end; ++step) {
        merge(step, per_step[step - round]);
        per_step[step - round] = ServeStepResult{};
      }
    }
  } else {
    const auto engine = make_serving_engine(model, topology, requests, config,
                                            interval, trace_requests);
    for (std::size_t step = 0; step < config.request_steps; ++step) {
      const obs::Span step_span("sim.serve_step", step);
      const ServeStepResult served =
          engine->serve_step(step, static_cast<double>(step) * interval);
      merge(step, served);
    }
  }
  result.served_fraction = result.totals.served_fraction();

  if (trace_snapshots) {
    trace->emit(
        obs::TraceEvent("run_end")
            .field("served_fraction", result.served_fraction)
            .field("fidelity_mean", result.totals.fidelity.mean())
            .field("eta_mean", result.totals.transmissivity.mean())
            .field("hops_mean", result.totals.hops.mean())
            .field("requests_issued",
                   static_cast<std::uint64_t>(result.totals.issued))
            .field("requests_served",
                   static_cast<std::uint64_t>(result.totals.served))
            .field("handovers", static_cast<std::uint64_t>(result.handovers)));
    trace->flush();
  }
  return result;
}

}  // namespace qntn::sim
