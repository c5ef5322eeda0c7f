// Air-ground architecture (paper Section IV-C): one HAP hovering at 30 km
// interconnects the three LANs permanently. Prints the per-LAN link budgets
// to the HAP and the request-serving statistics.

#include <cstdio>

#include "common/units.hpp"
#include "core/ground_networks.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace qntn;

  const core::QntnConfig config;
  std::printf("QNTN air-ground architecture: HAP at (%.4f, %.4f), %.0f km\n",
              rad_to_deg(config.hap_position.latitude),
              rad_to_deg(config.hap_position.longitude),
              m_to_km(config.hap_position.altitude));

  // Per-LAN geometry and link budget to the HAP.
  const channel::Endpoint hap =
      channel::Endpoint::from_geodetic(config.hap_position);
  const channel::FsoConfig fso = config.link_policy().fso;
  std::printf("\n%-6s %-10s %-10s %-8s\n", "LAN", "range", "elev", "eta");
  for (const core::LanDefinition& lan : core::qntn_lans()) {
    const channel::Endpoint site =
        channel::Endpoint::from_geodetic(lan.nodes.front());
    const channel::FsoGeometry geometry = channel::make_fso_geometry(site, hap);
    const double eta = channel::symmetric_transmissivity(
        fso, config.ground_terminal(), config.hap_terminal(), geometry);
    std::printf("%-6s %7.1f km %7.1f deg %.4f %s\n", lan.name.c_str(),
                m_to_km(geometry.range), rad_to_deg(geometry.elevation), eta,
                eta >= config.transmissivity_threshold ? "(linked)"
                                                       : "(below threshold)");
  }

  const sim::NetworkModel model = core::build_air_ground_model(config);
  const sim::TopologyBuilder topology(model, config.link_policy());
  const sim::ScenarioResult result =
      sim::run_scenario(model, topology, config.scenario_config());

  std::printf("\ncoverage   = %.2f%%   (paper: 100%%)\n",
              result.coverage.percent);
  std::printf("served     = %.2f%%   (paper: 100%%)\n",
              100.0 * result.served_fraction);
  std::printf("fidelity   = %.4f mean, %.4f min, %.4f max (paper: 0.98)\n",
              result.totals.fidelity.mean(), result.totals.fidelity.min(),
              result.totals.fidelity.max());
  std::printf("every request relays ground -> HAP -> ground: %.1f hops mean\n",
              result.totals.hops.mean());
  return 0;
}
