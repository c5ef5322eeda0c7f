// Differential oracle for the contact-plan compiler. The reference below is
// the specification of the plan, written as plainly as possible: every
// grid point t = k * step (the last one clipped to the horizon) gets the
// exact linkability predicate with no screen and no hop, and a flip is
// bisected on the grid step before it. Boundary refinement is restated
// here, so the compiled plan must match the reference byte for byte: every
// window's pair, start and end. The plan carries no transmissivities; the
// provider-equivalence test (contact_equivalence_test.cpp) pins the etas
// the topology evaluates from it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "core/ground_networks.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "geo/frames.hpp"
#include "orbit/constellation.hpp"
#include "orbit/passes.hpp"
#include "plan/contact_plan.hpp"
#include "sim/topology.hpp"

namespace qntn::plan {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

template <class Pred>
double bisect_flip(const Pred& pred, double lo, double hi, bool rising) {
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (pred(mid) == rising) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo < 1e-3) break;
  }
  return 0.5 * (lo + hi);
}

std::vector<orbit::Pass> reference_passes(const orbit::Ephemeris& eph,
                                          const geo::Geodetic& site,
                                          double duration, double mask,
                                          double step) {
  const auto above = [&](double t) {
    return geo::look_angles(site, eph.position_ecef(t)).elevation >= mask;
  };
  std::vector<orbit::Pass> passes;
  orbit::Pass current;
  bool in_pass = above(0.0);
  double prev_t = 0.0;
  for (std::size_t k = 1; prev_t < duration; ++k) {
    const double t = std::min(static_cast<double>(k) * step, duration);
    const bool visible = above(t);
    if (visible && !in_pass) {
      current.aos = bisect_flip(above, prev_t, t, true);
      in_pass = true;
    } else if (!visible && in_pass) {
      current.los = bisect_flip(above, prev_t, t, false);
      passes.push_back(current);
      current = orbit::Pass{};
      in_pass = false;
    }
    prev_t = t;
  }
  if (in_pass) {
    current.los = duration;
    passes.push_back(current);
  }
  return passes;
}

struct ReferenceCompiler {
  const sim::NetworkModel& model;
  const sim::LinkPolicy& policy;
  const ContactPlanOptions& options;
  const sim::TopologyBuilder builder{model, policy};
  std::vector<ContactWindow> windows{};

  void emit(net::NodeId a, net::NodeId b, double start, double end) {
    if (end - start < 1e-6) return;
    windows.push_back({a, b, start, end});
  }

  // One site against one satellite, scanning the grid points inside each
  // candidate pass with the site's own mask-and-threshold predicate.
  void site_within(net::NodeId site_id, net::NodeId sat_id,
                   const channel::FsoLinkEvaluator& evaluator,
                   const std::vector<orbit::Pass>& passes) {
    const geo::Geodetic& site = model.node(site_id).position;
    const orbit::Ephemeris& eph = model.ephemeris(sat_id);
    const double threshold = policy.transmissivity_threshold;
    const double mask = policy.elevation_mask;
    const double step = options.step;
    const auto linkable = [&](double t) {
      const geo::AzElRange look = geo::look_angles(site, eph.position_ecef(t));
      return look.elevation >= mask &&
             evaluator.symmetric(look.range, look.elevation) >= threshold;
    };
    for (const orbit::Pass& pass : passes) {
      const auto k_lo =
          static_cast<std::size_t>(std::ceil(pass.aos / step - 1e-9));
      const auto k_hi =
          static_cast<std::size_t>(std::floor(pass.los / step + 1e-9));
      bool in_window = false;
      double start = 0.0;
      // The in-window times seen so far, start first; one within 1e-9 s of
      // the latest is the same instant.
      std::vector<double> times;
      const auto push = [&](double t) {
        if (times.empty() || t > times.back() + 1e-9) times.push_back(t);
      };
      const auto close = [&](double end) {
        push(end);
        emit(site_id, sat_id, start, times.back());
        times.clear();
        in_window = false;
      };
      double prev_t = pass.aos;
      for (std::size_t k = k_lo; k <= k_hi; ++k) {
        const double t = static_cast<double>(k) * step;
        const bool above = linkable(t);
        if (above && !in_window) {
          in_window = true;
          start = k == k_lo && linkable(pass.aos)
                      ? pass.aos
                      : bisect_flip(linkable, prev_t, t, true);
          push(start);
          push(t);
        } else if (above) {
          push(t);
        } else if (in_window) {
          close(bisect_flip(linkable, prev_t, t, false));
        }
        prev_t = t;
      }
      if (in_window) {
        close(!linkable(pass.los) && pass.los > prev_t
                  ? bisect_flip(linkable, prev_t, pass.los, false)
                  : pass.los);
      }
    }
  }

  double min_altitude(net::NodeId sat_id) const {
    const orbit::Ephemeris& eph = model.ephemeris(sat_id);
    double r = kInf;
    for (std::size_t i = 0; i < eph.sample_count(); ++i) {
      r = std::min(r, eph.sample(i).norm());
    }
    return r - kEarthRadius;
  }

  // A LAN shares one pass search at its centroid with the mask lowered by
  // the largest elevation difference a member can have from it.
  void lan(const std::vector<net::NodeId>& sites, net::NodeId sat,
           const channel::FsoLinkEvaluator& evaluator) {
    const orbit::Ephemeris& eph = model.ephemeris(sat);
    double lat = 0.0, lon = 0.0, alt = 0.0;
    for (const net::NodeId id : sites) {
      lat += model.node(id).position.latitude;
      lon += model.node(id).position.longitude;
      alt += model.node(id).position.altitude;
    }
    const auto n = static_cast<double>(sites.size());
    const geo::Geodetic centroid{lat / n, lon / n, alt / n};
    double chord = 0.0;
    for (const net::NodeId id : sites) {
      chord = std::max(chord, distance(geo::geodetic_to_ecef(centroid),
                                       geo::geodetic_to_ecef(
                                           model.node(id).position)));
    }
    const double slant_floor = std::max(1e3, min_altitude(sat) - 1e4);
    const double margin =
        sites.size() > 1 ? std::asin(std::min(1.0, chord / slant_floor)) +
                               chord / kEarthRadius + 1e-4
                         : 0.0;
    if (sites.size() == 1 || margin >= policy.elevation_mask) {
      for (const net::NodeId site : sites) {
        site_within(site, sat, evaluator,
                    reference_passes(eph, model.node(site).position,
                                     options.horizon, policy.elevation_mask,
                                     options.step));
      }
      return;
    }
    const std::vector<orbit::Pass> candidates =
        reference_passes(eph, centroid, options.horizon,
                         policy.elevation_mask - margin, options.step);
    for (const net::NodeId site : sites) {
      site_within(site, sat, evaluator, candidates);
    }
  }

  void satellite_pair(net::NodeId sat_a, net::NodeId sat_b,
                      const channel::FsoLinkEvaluator& evaluator,
                      double threshold_range) {
    const orbit::Ephemeris& eph_a = model.ephemeris(sat_a);
    const orbit::Ephemeris& eph_b = model.ephemeris(sat_b);
    const double clearance = kEarthRadius + kAtmosphereTopAltitude;
    const double band = sim::kIslThresholdBand;
    const auto linkable = [&](double t) {
      const Vec3 pa = eph_a.position_ecef(t);
      const Vec3 pb = eph_b.position_ecef(t);
      const double range = distance(pa, pb);
      if (!geo::line_of_sight(pa, pb, clearance)) return false;
      if (range <= threshold_range - band) return true;
      return range < threshold_range + band &&
             evaluator.symmetric(range, kPi / 2.0) >=
                 policy.transmissivity_threshold;
    };
    bool in_window = linkable(0.0);
    double start = 0.0;
    double prev_t = 0.0;
    for (std::size_t k = 1; prev_t < options.horizon; ++k) {
      const double t =
          std::min(static_cast<double>(k) * options.step, options.horizon);
      const bool above = linkable(t);
      if (above && !in_window) {
        start = bisect_flip(linkable, prev_t, t, true);
        in_window = true;
      } else if (!above && in_window) {
        emit(sat_a, sat_b, start, bisect_flip(linkable, prev_t, t, false));
        in_window = false;
      }
      prev_t = t;
    }
    if (in_window) emit(sat_a, sat_b, start, options.horizon);
  }

  ContactPlan run() {
    using sim::NodeKind;
    const std::vector<net::NodeId>& sats = model.satellite_ids();
    if (const auto* ev = builder.evaluator(NodeKind::Ground, NodeKind::Satellite)) {
      for (const net::NodeId sat : sats) {
        for (std::size_t l = 0; l < model.lan_count(); ++l) {
          lan(model.lan_nodes(l), sat, *ev);
        }
      }
    }
    if (const auto* ev = builder.evaluator(NodeKind::Hap, NodeKind::Satellite)) {
      for (const net::NodeId sat : sats) {
        for (const net::NodeId hap : model.hap_ids()) {
          site_within(hap, sat, *ev,
                      reference_passes(model.ephemeris(sat),
                                       model.node(hap).position,
                                       options.horizon, policy.elevation_mask,
                                       options.step));
        }
      }
    }
    if (const auto* ev =
            builder.evaluator(NodeKind::Satellite, NodeKind::Satellite)) {
      const double threshold_range =
          sim::isl_threshold_range(*ev, policy.transmissivity_threshold);
      for (std::size_t i = 0; threshold_range > 0.0 && i < sats.size(); ++i) {
        for (std::size_t j = i + 1; j < sats.size(); ++j) {
          satellite_pair(sats[i], sats[j], *ev, threshold_range);
        }
      }
    }
    return ContactPlan(std::move(windows), builder.static_links(),
                       model.node_count(), options.horizon, policy);
  }
};

void expect_identical(const ContactPlan& actual, const ContactPlan& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.windows().size(), expected.windows().size()) << label;
  ASSERT_GT(expected.windows().size(), 0u) << label;
  for (std::size_t i = 0; i < expected.windows().size(); ++i) {
    const ContactWindow& x = actual.windows()[i];
    const ContactWindow& y = expected.windows()[i];
    ASSERT_EQ(x.a, y.a) << label << " window " << i;
    ASSERT_EQ(x.b, y.b) << label << " window " << i;
    ASSERT_EQ(x.start, y.start) << label << " window " << i;
    ASSERT_EQ(x.end, y.end) << label << " window " << i;
  }
  EXPECT_EQ(actual.horizon(), expected.horizon()) << label;
  EXPECT_EQ(actual.static_links().size(), expected.static_links().size());
}

void check(const sim::NetworkModel& model, const core::QntnConfig& config,
           const ContactPlanOptions& options, const std::string& label) {
  const sim::LinkPolicy policy = config.link_policy();
  const ContactPlan expected =
      ReferenceCompiler{model, policy, options}.run();
  expect_identical(compile_contact_plan(model, policy, options), expected,
                   label);
}

// Ground LANs, a solo site, a "LAN" too spread out for a shared pass
// search, optionally the HAP, and the first n satellites of the paper's
// constellation.
sim::NetworkModel mixed_model(const core::QntnConfig& config, std::size_t n,
                              bool hap) {
  sim::NetworkModel model = core::build_ground_model(config);
  model.add_lan("Solo", {geo::Geodetic::from_degrees(35.15, -90.05, 80.0)},
                config.ground_terminal());
  model.add_lan("Spread",
                {geo::Geodetic::from_degrees(36.0, -89.0, 0.0),
                 geo::Geodetic::from_degrees(35.0, -82.0, 0.0)},
                config.ground_terminal());
  if (hap) model.add_hap("HAP", config.hap_position, config.hap_terminal());
  orbit::PropagatorOptions propagation;
  propagation.include_j2 = config.include_j2;
  const auto elements = orbit::qntn_constellation(n);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    model.add_satellite(
        "sat" + std::to_string(i),
        orbit::Ephemeris::generate(
            orbit::TwoBodyPropagator(elements[i], propagation),
            config.day_duration, config.ephemeris_step),
        config.satellite_terminal());
  }
  return model;
}

TEST(ContactPlanOracle, PaperModelsMatchReference) {
  const core::QntnConfig config;
  for (const std::size_t n : {std::size_t{6}, std::size_t{54}, std::size_t{108}}) {
    check(core::build_space_ground_model(config, n), config,
          config.plan_options(), "n = " + std::to_string(n));
  }
}

TEST(ContactPlanOracle, VariantsMatchReference) {
  struct Variant {
    std::string label;
    bool j2;
    double duration;
    double plan_step;
    double mask_deg;
    double threshold = 0.7;
  };
  const std::vector<Variant> variants = {
      {"j2", true, 86'400.0, 30.0, 20.0},
      {"ragged horizon", false, 43'217.0, 30.0, 20.0},
      {"plan step 45 s", false, 43'200.0, 45.0, 20.0},
      {"plan step 20 s, j2, ragged", true, 30'010.0, 20.0, 20.0},
      {"mask 10", false, 43'200.0, 30.0, 10.0},
      {"mask 30", true, 43'200.0, 30.0, 30.0},
      {"mask 45", false, 86'400.0, 30.0, 45.0},
      // The ISL threshold range (~8,700 km) passes the line-of-sight chord
      // bound, so line of sight decides the points between the pads.
      {"threshold 0.3", false, 43'200.0, 30.0, 20.0, 0.3},
  };
  for (const Variant& v : variants) {
    core::QntnConfig config;
    config.include_j2 = v.j2;
    config.day_duration = v.duration;
    config.elevation_mask = v.mask_deg * kPi / 180.0;
    config.transmissivity_threshold = v.threshold;
    config.enable_hap_satellite = true;
    ContactPlanOptions options = config.plan_options();
    options.step = v.plan_step;
    check(mixed_model(config, 36, /*hap=*/true), config, options, v.label);
  }
}

TEST(ContactPlanOracle, HybridModelMatchesReference) {
  core::QntnConfig config;
  config.enable_hap_satellite = true;
  check(core::build_hybrid_model(config, 54), config, config.plan_options(),
        "hybrid n = 54");
}

// A movement sheet no LEO range-rate bound covers: two satellites
// counter-rotating on one 7000 km ring at 12 km/s each close at 24 km/s. A
// scan that hops grid points on a 16 km/s bound brackets their flips over
// several steps and lands on other boundary bits; the plan must still
// bracket every flip by one grid step.
TEST(ContactPlanOracle, FastMovementSheetMatchesReference) {
  core::QntnConfig config;
  config.day_duration = 6'000.0;
  sim::NetworkModel model = core::build_ground_model(config);
  const double radius = 7.0e6;
  const double omega = 12'000.0 / radius;
  for (const double sense : {1.0, -1.0}) {
    std::vector<Vec3> samples;
    for (std::size_t k = 0; k <= 200; ++k) {
      const double theta =
          sense * omega * 30.0 * static_cast<double>(k) + (sense < 0 ? kPi : 0);
      samples.push_back({radius * std::cos(theta), 0.0,
                         radius * std::sin(theta)});
    }
    model.add_satellite(sense > 0 ? "east" : "west",
                        orbit::Ephemeris(std::move(samples), 30.0),
                        config.satellite_terminal());
  }
  check(model, config, config.plan_options(), "counter-rotating ring");
}

}  // namespace
}  // namespace qntn::plan
