#include "channel/fso.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace qntn::channel {

namespace {

/// Gaussian-beam spot radius at distance L for waist w0 (waist at the
/// transmitter): w(L) = w0 sqrt(1 + (L/zR)^2), zR = pi w0^2 / lambda.
double vacuum_spot(double w0, double range, double wavelength) {
  const double rayleigh = kPi * w0 * w0 / wavelength;
  const double ratio = range / rayleigh;
  return w0 * std::sqrt(1.0 + ratio * ratio);
}

/// Transmitter waist that minimises the far-field spot at `range`, capped by
/// the physical aperture: w0_opt = sqrt(range * lambda / pi).
double optimal_waist(double range, double wavelength, double aperture_radius) {
  return std::min(std::sqrt(range * wavelength / kPi), aperture_radius);
}

/// Fraction of a centred Gaussian beam of radius w collected by a circular
/// aperture of radius a: 1 - exp(-2 a^2 / w^2).
double collection_efficiency(double aperture_radius, double spot_radius) {
  const double x = 2.0 * aperture_radius * aperture_radius /
                   (spot_radius * spot_radius);
  return 1.0 - std::exp(-x);
}

/// Simpson rule over [a, b] with n (even) panels.
template <typename F>
double simpson(const F& f, double a, double b, int n) {
  const double h = (b - a) / n;
  double sum = f(a) + f(b);
  for (int i = 1; i < n; ++i) sum += f(a + h * i) * (i % 2 == 1 ? 4.0 : 2.0);
  return sum * h / 3.0;
}

}  // namespace

FsoLinkEvaluator::FsoLinkEvaluator(const FsoConfig& config,
                                   const OpticalTerminal& a,
                                   const OpticalTerminal& b,
                                   double altitude_low, double altitude_high)
    : wavelength_(config.wavelength),
      receiver_efficiency_(config.receiver_efficiency),
      ao_gain_(config.ao_gain),
      aperture_a_(a.aperture_radius),
      aperture_b_(b.aperture_radius) {
  QNTN_REQUIRE(wavelength_ > 0.0, "wavelength must be positive");
  QNTN_REQUIRE(aperture_a_ > 0.0 && aperture_b_ > 0.0,
               "apertures must be positive");
  QNTN_REQUIRE(altitude_high >= altitude_low, "altitude band reversed");
  QNTN_REQUIRE(ao_gain_ >= 1.0, "AO gain cannot degrade the Fried parameter");
  // Every factor of the budget stays in [0, 1] only under these: the
  // topology layers evaluate links at query time and trust the value.
  QNTN_REQUIRE(receiver_efficiency_ >= 0.0 && receiver_efficiency_ <= 1.0,
               "FSO config: receiver_efficiency must be in [0, 1]");
  const double zenith = config.extinction.zenith_transmittance;
  QNTN_REQUIRE(zenith > 0.0 && zenith <= 1.0,
               "FSO config: extinction.zenith_transmittance must be in (0, 1]");
  const auto finite_non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  QNTN_REQUIRE(finite_non_negative(a.pointing_jitter) &&
                   finite_non_negative(b.pointing_jitter),
               "optical terminal: pointing_jitter must be finite and >= 0");
  QNTN_REQUIRE(finite_non_negative(config.weather.platform_jitter),
               "weather: platform_jitter must be finite and >= 0");
  QNTN_REQUIRE(finite_non_negative(config.weather.optical_depth_factor),
               "weather: optical_depth_factor must be finite and >= 0");
  QNTN_REQUIRE(finite_non_negative(config.weather.turbulence_factor),
               "weather: turbulence_factor must be finite and >= 0");

  const double wj = config.weather.platform_jitter;
  jitter_sq_ = a.pointing_jitter * a.pointing_jitter +
               b.pointing_jitter * b.pointing_jitter + wj * wj;

  touches_atmosphere_ = altitude_low < kAtmosphereTopAltitude;
  mu0_ = 0.0;
  rytov_integral_ = 0.0;
  tau_zenith_band_ = 0.0;
  if (touches_atmosphere_) {
    atmosphere::HufnagelValley profile = config.turbulence;
    profile.ground_cn2 *= config.weather.turbulence_factor;
    const double band_hi = std::min(altitude_high, kAtmosphereTopAltitude);
    mu0_ = profile.integrated_cn2(altitude_low, band_hi);

    auto moment = [&profile, altitude_low](double h) {
      return profile.cn2(h) * std::pow(std::max(h - altitude_low, 0.0), 5.0 / 6.0);
    };
    const double split = std::clamp(3000.0, altitude_low, band_hi);
    if (split > altitude_low) rytov_integral_ += simpson(moment, altitude_low, split, 600);
    if (band_hi > split) rytov_integral_ += simpson(moment, split, band_hi, 400);

    const double tau_full =
        -std::log(config.extinction.zenith_transmittance) *
        config.weather.optical_depth_factor;
    tau_zenith_band_ =
        tau_full * config.extinction.column_fraction(altitude_low, altitude_high);
  }
}

FsoBudget FsoLinkEvaluator::evaluate_directed(double tx_aperture,
                                              double rx_aperture, double range,
                                              double elevation) const {
  QNTN_REQUIRE(range > 0.0, "FSO range must be positive");

  FsoBudget budget;
  budget.beam_waist = optimal_waist(range, wavelength_, tx_aperture);
  budget.spot_diffraction = vacuum_spot(budget.beam_waist, range, wavelength_);
  budget.eta_diffraction =
      collection_efficiency(rx_aperture, budget.spot_diffraction);

  double spot_sq = budget.spot_diffraction * budget.spot_diffraction;
  if (touches_atmosphere_) {
    QNTN_REQUIRE(elevation > 0.0 && elevation <= kPi / 2.0,
                 "atmospheric FSO path needs elevation in (0, pi/2]");
    const double zenith = kPi / 2.0 - elevation;
    const double sec_zeta = 1.0 / std::cos(zenith);
    const double k = kTwoPi / wavelength_;
    const double r0 =
        mu0_ > 0.0 ? std::pow(0.423 * k * k * sec_zeta * mu0_, -3.0 / 5.0) : 1e9;
    budget.fried_r0 = r0 * ao_gain_;
    budget.rytov_variance = 2.25 * std::pow(k, 7.0 / 6.0) *
                            std::pow(sec_zeta, 11.0 / 6.0) * rytov_integral_;
    // Long-term turbulent spread of a beam whose transverse coherence is
    // limited to r0_eff: w_turb = sqrt(2) * lambda * L / (pi * r0_eff).
    const double w_turb =
        std::sqrt(2.0) * wavelength_ * range / (kPi * budget.fried_r0);
    spot_sq += w_turb * w_turb;

    budget.eta_atmosphere =
        std::exp(-tau_zenith_band_ * atmosphere::kasten_young_airmass(zenith));
  } else {
    budget.fried_r0 = 1e9;
    budget.rytov_variance = 0.0;
    budget.eta_atmosphere = 1.0;
  }

  // Pointing jitter broadens the effective long-term spot.
  const double w_jitter_sq = jitter_sq_ * range * range;
  spot_sq += 2.0 * w_jitter_sq;

  budget.spot_longterm = std::sqrt(spot_sq);
  const double eta_geo = collection_efficiency(rx_aperture, budget.spot_longterm);
  // Report turbulence as the multiplicative degradation beyond diffraction,
  // matching the paper's eta = eta_turb * eta_atm * eta_eff decomposition.
  budget.eta_turbulence =
      budget.eta_diffraction > 0.0 ? eta_geo / budget.eta_diffraction : 0.0;

  budget.eta_efficiency = receiver_efficiency_;
  budget.total = budget.eta_diffraction * budget.eta_turbulence *
                 budget.eta_atmosphere * budget.eta_efficiency;
  return budget;
}

FsoBudget FsoLinkEvaluator::evaluate(double range, double elevation) const {
  return evaluate_directed(aperture_a_, aperture_b_, range, elevation);
}

double FsoLinkEvaluator::symmetric(double range, double elevation) const {
  const double ab =
      evaluate_directed(aperture_a_, aperture_b_, range, elevation).total;
  if (aperture_a_ == aperture_b_) return ab;
  const double ba =
      evaluate_directed(aperture_b_, aperture_a_, range, elevation).total;
  return std::min(ab, ba);
}

FsoBudget evaluate_fso(const FsoConfig& config, const OpticalTerminal& tx,
                       const OpticalTerminal& rx, const FsoGeometry& geometry) {
  const double h_lo = std::min(geometry.altitude_low, geometry.altitude_high);
  const double h_hi = std::max(geometry.altitude_low, geometry.altitude_high);
  const FsoLinkEvaluator evaluator(config, tx, rx, h_lo, h_hi);
  return evaluator.evaluate(geometry.range, geometry.elevation);
}

double symmetric_transmissivity(const FsoConfig& config,
                                const OpticalTerminal& a,
                                const OpticalTerminal& b,
                                const FsoGeometry& geometry) {
  const double h_lo = std::min(geometry.altitude_low, geometry.altitude_high);
  const double h_hi = std::max(geometry.altitude_low, geometry.altitude_high);
  const FsoLinkEvaluator evaluator(config, a, b, h_lo, h_hi);
  return evaluator.symmetric(geometry.range, geometry.elevation);
}

}  // namespace qntn::channel
