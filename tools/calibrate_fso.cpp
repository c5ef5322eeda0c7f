// Calibration tool for the FSO channel parameters (DESIGN.md §4).
//
// Prints the elevation dependence of the symmetric link transmissivity for
// the three link classes of the QNTN study (ground-satellite at 500 km,
// ground-HAP at 30 km, inter-satellite), with the per-component budget, so
// the defaults in core/qntn_config.hpp can be chosen to place the paper's
// 0.7 threshold crossing where the coverage curve requires it.

#include <cmath>
#include <cstdio>

#include "channel/fso.hpp"
#include "cli_common.hpp"
#include "common/constants.hpp"
#include "common/units.hpp"
#include "core/ground_networks.hpp"
#include "core/qntn_config.hpp"
#include "geo/frames.hpp"
#include "orbit/constellation.hpp"

namespace {

using namespace qntn;

/// Slant range to a target at altitude h seen at elevation el.
double slant_range(double altitude, double elevation) {
  const double re = kEarthRadius;
  const double s = re * std::sin(elevation);
  return -s + std::sqrt(s * s + altitude * altitude + 2.0 * re * altitude);
}

void print_budget_row(double el_deg, double range, const channel::FsoBudget& b,
                      double symmetric) {
  std::printf(
      "  el=%5.1f deg  L=%8.1f km  diff=%.4f turb=%.4f atm=%.4f eff=%.4f"
      "  -> dir=%.4f sym=%.4f  (w0=%.3f m, w_lt=%.3f m, r0_eff=%.3f m)\n",
      el_deg, m_to_km(range), b.eta_diffraction, b.eta_turbulence,
      b.eta_atmosphere, b.eta_efficiency, b.total, symmetric, b.beam_waist,
      b.spot_longterm, b.fried_r0);
}

}  // namespace

int main(int argc, char** argv) {
  // Common flag surface; --config selects the parameter set to calibrate
  // against, --out redirects the report. --threads/--seed are accepted for
  // uniformity and unused (the tool is single-threaded and deterministic).
  tools::CommonOptions opts;
  try {
    opts = tools::parse_common_flags(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (opts.out.has_value() &&
      std::freopen(opts.out->c_str(), "w", stdout) == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.out->c_str());
    return 1;
  }
  const core::QntnConfig config = tools::load_config(opts);
  const sim::LinkPolicy policy = config.link_policy();

  std::printf("QNTN FSO calibration (threshold %.2f, mask %.1f deg)\n\n",
              config.transmissivity_threshold, rad_to_deg(config.elevation_mask));

  std::printf("[ground <-> satellite], altitude %.0f km\n",
              m_to_km(orbit::kQntnAltitude));
  const channel::FsoLinkEvaluator gs(policy.fso, config.ground_terminal(),
                                     config.satellite_terminal(), 0.0,
                                     orbit::kQntnAltitude);
  double crossing = -1.0;
  for (double el = 20.0; el <= 90.0; el += 5.0) {
    const double elevation = deg_to_rad(el);
    const double range = slant_range(orbit::kQntnAltitude, elevation);
    const channel::FsoBudget b = gs.evaluate(range, elevation);
    const double sym = gs.symmetric(range, elevation);
    print_budget_row(el, range, b, sym);
    if (crossing < 0.0 && sym >= config.transmissivity_threshold) crossing = el;
  }
  std::printf("  -> threshold crossing near %.1f deg elevation\n\n", crossing);

  std::printf("[ground <-> HAP], altitude %.0f km at the paper's position\n",
              m_to_km(config.hap_position.altitude));
  const channel::FsoLinkEvaluator gh(policy.fso, config.ground_terminal(),
                                     config.hap_terminal(), 0.0,
                                     config.hap_position.altitude);
  for (const core::LanDefinition& lan : core::qntn_lans()) {
    const geo::Geodetic& site = lan.nodes.front();
    const Vec3 hap_ecef = geo::geodetic_to_ecef(config.hap_position);
    const geo::AzElRange look = geo::look_angles(site, hap_ecef);
    const channel::FsoBudget b = gh.evaluate(look.range, look.elevation);
    const double sym = gh.symmetric(look.range, look.elevation);
    std::printf("  %-5s", lan.name.c_str());
    print_budget_row(rad_to_deg(look.elevation), look.range, b, sym);
  }

  std::printf("\n[satellite <-> satellite] (vacuum)\n");
  const channel::FsoLinkEvaluator ss(policy.fso, config.satellite_terminal(),
                                     config.satellite_terminal(),
                                     orbit::kQntnAltitude,
                                     orbit::kQntnAltitude);
  for (double km : {500.0, 1000.0, 2000.0, 3000.0, 5000.0, 6871.0}) {
    const double range = km_to_m(km);
    const channel::FsoBudget b = ss.evaluate(range, kPi / 2.0);
    print_budget_row(90.0, range, b, ss.symmetric(range, kPi / 2.0));
  }

  std::printf("\n[fidelity mapping] F_uhlmann(eta) = (1+sqrt(eta))/2\n");
  for (double eta : {0.7, 0.75, 0.8, 0.85, 0.9, 0.95}) {
    std::printf("  eta=%.2f  1 hop F=%.4f   2 hops (eta^2=%.3f) F=%.4f\n", eta,
                (1.0 + std::sqrt(eta)) / 2.0, eta * eta,
                (1.0 + eta) / 2.0);
  }
  return 0;
}
