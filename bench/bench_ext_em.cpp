// Extension: entanglement-management serving (DESIGN.md §11). Sweeps the
// two hardware knobs the subsystem exposes — memory slots per node and the
// coherence time of the buffered pairs — on the paper's headline
// space-ground @108 protocol (100 requests x 100 snapshots over a day) and
// reports served fraction and delivered fidelity: the hardware price the
// paper's instantaneous single-shot model (58.65 % served on this
// reproduction) does not pay. Feeds the EXPERIMENTS.md sweep table.

#include <cstdio>
#include <string>

#include "common/thread_pool.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "repro_common.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace qntn;

sim::ScenarioResult run_em_scenario(std::size_t slots, double t2,
                                    ThreadPool& pool) {
  core::QntnConfig config;
  config.serving_mode = core::ServingMode::Entanglement;
  config.em_memory_slots = slots;
  config.em_memory_t1 = t2;  // T2-limited memory: T2 = T1 (<= 2 T1)
  config.em_memory_t2 = t2;
  config.em_fidelity_slo = 0.9;
  const sim::NetworkModel model = core::build_space_ground_model(config, 108);
  const core::Topology topology = core::make_topology(config, model);
  sim::ScenarioConfig sc = config.scenario_config();
  sc.pool = &pool;
  return sim::run_scenario(model, topology.provider(), sc);
}

}  // namespace

int main() {
  ThreadPool pool;
  Table table(
      "Extension — em serving vs memory size and coherence time "
      "(space-ground @108, 100 requests x 100 snapshots, SLO 0.9)");
  table.set_header({"slots/node", "T2 [s]", "served %", "congested %",
                    "mean fidelity", "SLO met %", "occupancy"});

  for (const std::size_t slots : {std::size_t{8}, std::size_t{16},
                                  std::size_t{32}, std::size_t{64}}) {
    for (const double t2 : {0.1, 0.5, 5.0}) {
      const sim::ScenarioResult r = run_em_scenario(slots, t2, pool);
      const auto issued = static_cast<double>(r.totals.issued);
      const double served_pct = 100.0 * r.served_fraction;
      const double congested_pct =
          issued > 0.0
              ? 100.0 * static_cast<double>(r.totals.congested) / issued
              : 0.0;
      const double slo_pct =
          r.totals.served > 0
              ? 100.0 * static_cast<double>(r.em.slo_met) /
                    static_cast<double>(r.totals.served)
              : 0.0;
      table.add_row({std::to_string(slots), Table::num(t2, 1),
                     Table::num(served_pct, 2), Table::num(congested_pct, 2),
                     r.totals.fidelity.count() > 0 ? Table::num(r.totals.fidelity.mean(), 4)
                                            : "-",
                     Table::num(slo_pct, 1),
                     Table::num(r.em.memory_occupancy.mean(), 3)});
    }
  }
  bench::emit(table, "ext_em.csv");

  std::printf(
      "\nthe pool fair-shares each node's slots across its incident links, "
      "so below\n~1 slot per link the satellite uplinks hold no buffered "
      "pairs and nearly\neverything congests; more slots lift the served "
      "fraction until relay BSM\ncapacity binds. Longer T2 keeps the older "
      "buffer rungs usable: purification\nrescues the SLO at short "
      "coherence, at the price of extra pairs per hop.\n");
  return 0;
}
