#include "plan/contact_plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "geo/frames.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "orbit/passes.hpp"

namespace qntn::plan {

namespace {

/// Bisect a boolean linkability predicate's flip inside [lo, hi] (predicate
/// differs at the ends) to ~1 ms, mirroring orbit/passes' crossing
/// refinement. Templated on the predicate: these run hundreds of thousands
/// of times per compile, and a std::function hop per sample is measurable.
template <class Linkable>
double refine_flip(const Linkable& linkable, double lo, double hi,
                   bool rising) {
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (linkable(mid) == rising) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo < 1e-3) break;
  }
  return 0.5 * (lo + hi);
}

/// Grid points per block of the ISL scan's block screen (see
/// Compiler::grid_hop).
constexpr std::size_t kGridBlock = 8;

struct Compiler {
  const sim::NetworkModel& model;
  const sim::LinkPolicy& policy;
  const ContactPlanOptions& options;
  const sim::TopologyBuilder builder;
  std::vector<ContactWindow> windows;
  /// Structure-of-arrays ECEF position tables of each satellite at the
  /// global scan grid times k*step: every site and every pairing scans the
  /// same grid, so one table per satellite replaces the redundant
  /// position_ecef calls (hundreds per grid point at paper sizes). Entries
  /// are exactly position_ecef(k*step), keeping every scan bit-identical.
  /// Filled by prefill_grids before the compile passes; the parallel
  /// fan-out shares the tables read-only.
  std::vector<std::vector<Vec3>> grid_pos;
  /// Longest step [m] between consecutive entries of each satellite's
  /// grid table, filled alongside it. A grid point j steps from point k
  /// lies within |j - k| * grid_hop of it (triangle inequality along the
  /// table), so every point of a block lies within a sphere around the
  /// block's middle point whose radius is measured from the input itself.
  std::vector<double> grid_hop;

  Compiler(const sim::NetworkModel& m, const sim::LinkPolicy& p,
           const ContactPlanOptions& o)
      : model(m), policy(p), options(o), builder(m, p),
        grid_pos(m.node_count()), grid_hop(m.node_count(), 0.0) {}

  void fill_grid(net::NodeId sat_id) {
    std::vector<Vec3>& cache = grid_pos[sat_id];
    const orbit::Ephemeris& eph = model.ephemeris(sat_id);
    const auto count = static_cast<std::size_t>(std::floor(
                           options.horizon / options.step + 1e-9)) +
                       1;
    cache.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      cache.push_back(eph.position_ecef(static_cast<double>(k) * options.step));
    }
    for (std::size_t k = 1; k < count; ++k) {
      grid_hop[sat_id] =
          std::max(grid_hop[sat_id], distance(cache[k - 1], cache[k]));
    }
  }

  /// Fill every satellite's grid table up front — in parallel when a pool
  /// is given (each index writes only its own slot). Must complete before
  /// the compile passes fan out: a lazy fill would race across workers.
  void prefill_grids(ThreadPool* pool) {
    const std::vector<net::NodeId>& sats = model.satellite_ids();
    if (pool != nullptr && pool->size() > 1 && sats.size() > 1) {
      parallel_for_index(*pool, sats.size(),
                         [&](std::size_t i) { fill_grid(sats[i]); });
    } else {
      for (const net::NodeId sat : sats) fill_grid(sat);
    }
  }

  [[nodiscard]] const std::vector<Vec3>& grid_positions(
      net::NodeId sat_id) const {
    return grid_pos[sat_id];
  }

  /// Append a window for pair (a, b) spanning [start, end).
  static void emit(net::NodeId a, net::NodeId b, double start, double end,
                   std::vector<ContactWindow>& out) {
    if (end - start < 1e-6) return;  // degenerate: below refinement precision
    out.push_back({a, b, start, end});
  }

  /// Windows of one site (ground or HAP) against one satellite: pass
  /// prediction above the elevation mask, then above-threshold episodes
  /// within each pass on the scan grid, boundaries refined by bisection.
  void compile_site_satellite(net::NodeId site_id, net::NodeId sat_id,
                              const channel::FsoLinkEvaluator& evaluator,
                              std::vector<ContactWindow>& out) const {
    const std::vector<orbit::Pass> passes = orbit::find_passes(
        model.ephemeris(sat_id), model.node(site_id).position,
        options.horizon, policy.elevation_mask, options.step);
    compile_site_within(site_id, sat_id, evaluator, passes, out);
  }

  /// Windows of one site against one satellite, scanning only inside the
  /// given candidate passes. The candidates must cover every instant the
  /// site can see the satellite above the elevation mask; they may be wider
  /// (the grid classification below re-checks the mask per sample, exactly
  /// as the per-step rebuild does). This is how one widened-mask pass
  /// search is shared across a whole LAN of near-colocated sites.
  void compile_site_within(net::NodeId site_id, net::NodeId sat_id,
                           const channel::FsoLinkEvaluator& evaluator,
                           const std::vector<orbit::Pass>& passes,
                           std::vector<ContactWindow>& out) const {
    const geo::Geodetic& site = model.node(site_id).position;
    // One ENU frame per site/satellite sweep; the scan and the boundary
    // bisections evaluate it millions of times per compile.
    const geo::TopocentricFrame frame(site);
    const orbit::Ephemeris& eph = model.ephemeris(sat_id);
    const double threshold = policy.transmissivity_threshold;
    const double step = options.step;

    const auto linkable = [&](double t) {
      const geo::AzElRange look = geo::look_angles(frame, eph.position_ecef(t));
      return look.elevation >= policy.elevation_mask &&
             evaluator.symmetric(look.range, look.elevation) >= threshold;
    };

    const std::vector<Vec3>& sat_grid = grid_positions(sat_id);
    for (const orbit::Pass& pass : passes) {
      // Grid points inside the pass (nudged so a boundary exactly on the
      // grid still counts as inside).
      const auto k_lo =
          static_cast<std::size_t>(std::ceil(pass.aos / step - 1e-9));
      const auto k_hi =
          static_cast<std::size_t>(std::floor(pass.los / step + 1e-9));
      if (k_lo > k_hi) continue;  // sub-step pass: invisible to the grid

      bool in_window = false;
      double window_start = 0.0;
      // Latest in-window time of the scan (the window start or a grid point
      // after it). A time within 1e-9 s past it lands on it, so neither a
      // grid point nor the refined end can sit a rounding error away.
      double last_in = 0.0;
      const auto snap = [&last_in](double t) {
        return t <= last_in + 1e-9 ? last_in : t;
      };
      double prev_t = pass.aos;
      for (std::size_t k = k_lo; k <= k_hi; ++k) {
        const double t = static_cast<double>(k) * step;
        // Mask first, budget second — the same predicate the per-step
        // rebuild applies, so a candidate grid point below the site's own
        // mask can never open a window.
        const geo::AzElRange look = geo::look_angles(frame, sat_grid[k]);
        const bool above =
            look.elevation >= policy.elevation_mask &&
            evaluator.symmetric(look.range, look.elevation) >= threshold;
        if (above && !in_window) {
          in_window = true;
          if (k == k_lo && linkable(pass.aos)) {
            // Already above threshold when the satellite clears the mask.
            window_start = pass.aos;
          } else {
            window_start = refine_flip(linkable, prev_t, t, /*rising=*/true);
          }
          last_in = window_start;
          last_in = snap(t);
        } else if (above && in_window) {
          last_in = snap(t);
        } else if (!above && in_window) {
          emit(site_id, sat_id, window_start,
               snap(refine_flip(linkable, prev_t, t, /*rising=*/false)), out);
          in_window = false;
        }
        prev_t = t;
      }
      if (in_window) {
        // Still above threshold at the last grid point of the pass: the
        // window closes where the link drops, at latest at LOS (or the
        // horizon clip).
        double end = pass.los;
        if (!linkable(pass.los) && pass.los > prev_t) {
          end = refine_flip(linkable, prev_t, pass.los, /*rising=*/false);
        }
        emit(site_id, sat_id, window_start, snap(end), out);
      }
    }
  }

  /// Windows of one satellite pair: line-of-sight clearance plus the range
  /// at which the vacuum link budget crosses the threshold
  /// (sim::isl_threshold_range; transmissivity is non-increasing in range,
  /// pinned by IslThresholdRange.SatSatBudgetIsNonIncreasingInRange), so
  /// the scan is pure geometry.
  ///
  /// Every grid point is classified, through a screen on the squared range
  /// that settles almost all of them exactly:
  /// - past (threshold_range + band)^2 the exact predicate fails on its
  ///   range test alone, whatever the line of sight;
  /// - below min(threshold_range - band, los_safe_range)^2 it holds: the
  ///   range is inside the budget's sure band, and line of sight is
  ///   guaranteed (below).
  /// Both pads carry a 1e-12 relative margin, far above the rounding of
  /// the squared range against distance(); points between them run the
  /// exact predicate. A flip is refined on the grid step before it.
  ///
  /// `min_radius` is a lower bound on both endpoints' geocentric radii over
  /// the whole horizon (min ephemeris sample radius, deflated for the
  /// interpolation sagitta). Any segment shorter than the chord of the
  /// min-radius sphere tangent to the blockage sphere stays above the
  /// blockage sphere regardless of orientation, so line of sight needs an
  /// explicit check only beyond that range.
  void compile_satellite_pair(net::NodeId sat_a, net::NodeId sat_b,
                              const channel::FsoLinkEvaluator& evaluator,
                              double threshold_range, double min_radius,
                              std::vector<ContactWindow>& out) const {
    const orbit::Ephemeris& eph_a = model.ephemeris(sat_a);
    const orbit::Ephemeris& eph_b = model.ephemeris(sat_b);
    const double threshold = policy.transmissivity_threshold;
    const double clearance = kEarthRadius + kAtmosphereTopAltitude;
    // Within this band of the threshold range, decide by the actual link
    // budget instead of the precomputed crossing.
    const double band = sim::kIslThresholdBand;
    // Chord of the min-radius sphere whose midpoint grazes the blockage
    // sphere: clearance(a, b) >= sqrt(min_radius^2 - (range/2)^2) for any
    // endpoints at radius >= min_radius, so ranges at or below this bound
    // have guaranteed line of sight.
    const double los_safe_range =
        2.0 * std::sqrt(std::max(
                  0.0, min_radius * min_radius - clearance * clearance));

    const auto linkable_at = [&](const Vec3& pa, const Vec3& pb) {
      const double range = distance(pa, pb);
      if (range > los_safe_range && !geo::line_of_sight(pa, pb, clearance)) {
        return false;
      }
      if (range <= threshold_range - band) return true;
      if (range >= threshold_range + band) return false;
      return evaluator.symmetric(range, kPi / 2.0) >= threshold;
    };
    const auto linkable = [&](double t) {
      return linkable_at(eph_a.position_ecef(t), eph_b.position_ecef(t));
    };

    const double far = threshold_range + band;
    const double near = std::min(threshold_range - band, los_safe_range);
    const double far_sq = far * far * (1.0 + 1e-12);
    const double near_sq =
        near > 0.0 ? near * near * (1.0 - 1e-12) : -1.0;  // no sure-link zone
    const std::vector<Vec3>& grid_a = grid_positions(sat_a);
    const std::vector<Vec3>& grid_b = grid_positions(sat_b);
    // Block screen: the kGridBlock points from grid point lo lie within
    // kGridBlock / 2 steps of the middle one, so their ranges stay within
    // `spread` of its range. A block whose every point keeps 1 m clear of
    // the pad on the current side holds no flip (1 m dwarfs the rounding
    // of this arithmetic at orbital ranges).
    const double spread = static_cast<double>(kGridBlock / 2) *
                          (grid_hop[sat_a] + grid_hop[sat_b]);
    const auto block_settled = [&](std::size_t lo, bool linked) {
      const std::size_t mid = lo + kGridBlock / 2;
      const double range = distance(grid_a[mid], grid_b[mid]);
      return linked ? range + spread < near - 1.0 : range - spread > far + 1.0;
    };
    bool in_window = linkable(0.0);
    double window_start = 0.0;
    double prev_t = 0.0;
    for (std::size_t k = 1; prev_t < options.horizon; ++k) {
      if (k % kGridBlock == 0 && k + kGridBlock <= grid_a.size() &&
          block_settled(k, in_window)) {
        // No flip inside the block: resume at its last point.
        k += kGridBlock - 1;
        prev_t =
            std::min(static_cast<double>(k) * options.step, options.horizon);
        continue;
      }
      const double t =
          std::min(static_cast<double>(k) * options.step, options.horizon);
      const bool on_grid = k < grid_a.size();
      const Vec3 pa = on_grid ? grid_a[k] : eph_a.position_ecef(t);
      const Vec3 pb = on_grid ? grid_b[k] : eph_b.position_ecef(t);
      const double range_sq = (pa - pb).norm_sq();
      const bool above = range_sq < near_sq ||
                         (range_sq <= far_sq && linkable_at(pa, pb));
      if (above && !in_window) {
        window_start = refine_flip(linkable, prev_t, t, /*rising=*/true);
        in_window = true;
      } else if (!above && in_window) {
        const double end = refine_flip(linkable, prev_t, t, /*rising=*/false);
        emit(sat_a, sat_b, window_start, end, out);
        in_window = false;
      }
      prev_t = t;
    }
    if (in_window) {
      emit(sat_a, sat_b, window_start, options.horizon, out);
    }
  }

  /// A set of near-colocated sites sharing one candidate pass search (a
  /// LAN spans a campus, so its members see every satellite within a
  /// fraction of a degree of each other).
  struct SiteGroup {
    std::vector<net::NodeId> sites;
    geo::Geodetic centroid;
    double max_chord = 0.0;  ///< [m], farthest member from the centroid
  };

  [[nodiscard]] SiteGroup make_group(
      const std::vector<net::NodeId>& sites) const {
    SiteGroup group;
    group.sites = sites;
    double lat = 0.0, lon = 0.0, alt = 0.0;
    for (const net::NodeId id : sites) {
      const geo::Geodetic& g = model.node(id).position;
      lat += g.latitude;
      lon += g.longitude;
      alt += g.altitude;
    }
    const double n = static_cast<double>(sites.size());
    group.centroid = {lat / n, lon / n, alt / n};
    const Vec3 centre = geo::geodetic_to_ecef(group.centroid);
    for (const net::NodeId id : sites) {
      group.max_chord = std::max(
          group.max_chord,
          distance(centre, geo::geodetic_to_ecef(model.node(id).position)));
    }
    return group;
  }

  /// Lowest sample altitude of a satellite over the horizon [m] — a sound
  /// floor on the slant range of any above-mask contact, used to bound how
  /// much the elevation to a satellite can differ across a site group.
  [[nodiscard]] double min_altitude(net::NodeId sat_id) const {
    const orbit::Ephemeris& eph = model.ephemeris(sat_id);
    double min_radius = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < eph.sample_count(); ++i) {
      min_radius = std::min(min_radius, eph.sample(i).norm());
    }
    return min_radius - kEarthRadius;
  }

  /// Compile every site of the group against one satellite. Groups of two
  /// or more share a single widened-mask pass search at the centroid: for
  /// members within max_chord of the centroid, elevations differ from the
  /// centroid's by at most asin(chord / slant_range) + chord / R_earth, so
  /// lowering the mask by that margin yields candidate passes covering
  /// every member's own passes. Each member then scans only inside the
  /// candidates, applying its own exact mask/threshold per grid sample.
  void compile_group(const SiteGroup& group, net::NodeId sat_id,
                     const channel::FsoLinkEvaluator& evaluator,
                     double slant_floor, std::vector<ContactWindow>& out) const {
    const double margin =
        group.sites.size() > 1
            ? std::asin(std::min(1.0, group.max_chord / slant_floor)) +
                  group.max_chord / kEarthRadius + 1e-4
            : 0.0;
    if (group.sites.size() == 1 || margin >= policy.elevation_mask) {
      // Solo site, or the group is too spread out for a sound shared scan
      // (e.g. a degenerate centroid across the antimeridian): per-site
      // pass searches.
      for (const net::NodeId site : group.sites) {
        compile_site_satellite(site, sat_id, evaluator, out);
      }
      return;
    }
    const std::vector<orbit::Pass> candidates = orbit::find_passes(
        model.ephemeris(sat_id), group.centroid, options.horizon,
        policy.elevation_mask - margin, options.step);
    for (const net::NodeId site : group.sites) {
      compile_site_within(site, sat_id, evaluator, candidates, out);
    }
  }

  /// Run `task(i, out)` for i in [0, count), appending windows to `out`.
  /// Serial: every task appends straight to `windows`. Parallel: each task
  /// fills its own buffer (workers inherit the caller's ambient registry /
  /// profiler, which are thread-safe), and the buffers are spliced in task
  /// order — the concatenation equals the serial append order exactly, so
  /// the compiled plan is byte-identical for any thread count.
  template <class Task>
  void fan_out(ThreadPool* pool, std::size_t count, const Task& task) {
    const bool parallel = pool != nullptr && pool->size() > 1 && count > 1;
    if (!parallel) {
      for (std::size_t i = 0; i < count; ++i) task(i, windows);
      return;
    }
    std::vector<std::vector<ContactWindow>> parts(count);
    obs::Registry* const registry = obs::ambient();
    obs::Profiler* const profiler = obs::ambient_profiler();
    parallel_for_index(*pool, count, [&](std::size_t i) {
      const obs::ScopedRegistry worker_registry(registry);
      const obs::ScopedProfiler worker_profiler(profiler);
      task(i, parts[i]);
    });
    for (std::vector<ContactWindow>& part : parts) {
      windows.insert(windows.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
  }

  ContactPlan run(ThreadPool* pool) {
    const obs::Span compile_span("plan.compile", model.node_count());
    const std::vector<net::NodeId>& sats = model.satellite_ids();
    prefill_grids(pool);

    if (const auto* ground_sat =
            builder.evaluator(sim::NodeKind::Ground, sim::NodeKind::Satellite)) {
      const obs::Span span("plan.compile.ground_sat", sats.size());
      std::vector<SiteGroup> groups;
      groups.reserve(model.lan_count());
      for (std::size_t lan = 0; lan < model.lan_count(); ++lan) {
        groups.push_back(make_group(model.lan_nodes(lan)));
      }
      fan_out(pool, sats.size(),
              [&](std::size_t si, std::vector<ContactWindow>& out) {
                const net::NodeId sat = sats[si];
                const double slant_floor =
                    std::max(1e3, min_altitude(sat) - 1e4);
                for (const SiteGroup& group : groups) {
                  compile_group(group, sat, *ground_sat, slant_floor, out);
                }
              });
    }
    if (const auto* hap_sat =
            builder.evaluator(sim::NodeKind::Hap, sim::NodeKind::Satellite)) {
      const obs::Span span("plan.compile.hap_sat", sats.size());
      fan_out(pool, sats.size(),
              [&](std::size_t si, std::vector<ContactWindow>& out) {
                for (const net::NodeId hap : model.hap_ids()) {
                  compile_site_satellite(hap, sats[si], *hap_sat, out);
                }
              });
    }
    if (const auto* sat_sat = builder.evaluator(sim::NodeKind::Satellite,
                                                sim::NodeKind::Satellite)) {
      const obs::Span span("plan.compile.isl", sats.size());
      const double threshold_range =
          sim::isl_threshold_range(*sat_sat, policy.transmissivity_threshold);
      if (threshold_range > 0.0) {
        std::vector<double> min_alt(sats.size());
        for (std::size_t i = 0; i < sats.size(); ++i) {
          min_alt[i] = min_altitude(sats[i]);
        }
        fan_out(pool, sats.size(),
                [&](std::size_t i, std::vector<ContactWindow>& out) {
                  for (std::size_t j = i + 1; j < sats.size(); ++j) {
                    // 10 km deflation covers the linear-interpolation
                    // sagitta of the sampled ephemerides, as in the
                    // ground-station slant floor.
                    const double min_radius =
                        kEarthRadius + std::min(min_alt[i], min_alt[j]) - 1e4;
                    compile_satellite_pair(sats[i], sats[j], *sat_sat,
                                           threshold_range, min_radius, out);
                  }
                });
      }
    }

    return ContactPlan(std::move(windows), builder.static_links(),
                       model.node_count(), options.horizon, policy);
  }
};

}  // namespace

ContactPlan::ContactPlan(std::vector<ContactWindow> windows,
                         std::vector<sim::LinkRecord> static_links,
                         std::size_t node_count, double horizon,
                         const sim::LinkPolicy& policy)
    : windows_(std::move(windows)),
      static_links_(std::move(static_links)),
      node_count_(node_count),
      horizon_(horizon),
      policy_(policy) {
  std::sort(windows_.begin(), windows_.end(),
            [](const ContactWindow& a, const ContactWindow& b) {
              return a.start < b.start;
            });
}

std::vector<const ContactWindow*> ContactPlan::pair_windows(
    net::NodeId a, net::NodeId b) const {
  std::vector<const ContactWindow*> out;
  for (const ContactWindow& window : windows_) {
    if ((window.a == a && window.b == b) || (window.a == b && window.b == a)) {
      out.push_back(&window);
    }
  }
  return out;
}

ContactPlanStats ContactPlan::stats() const {
  ContactPlanStats stats;
  stats.window_count = windows_.size();
  for (const ContactWindow& window : windows_) {
    stats.total_contact += window.duration();
  }
  if (stats.window_count > 0) {
    stats.mean_window_duration =
        stats.total_contact / static_cast<double>(stats.window_count);
  }
  return stats;
}

ContactPlan compile_contact_plan(const sim::NetworkModel& model,
                                 const sim::LinkPolicy& policy,
                                 const ContactPlanOptions& options,
                                 ThreadPool* pool) {
  // Finite, positive and a grid that fits: fill_grid sizes its tables
  // from horizon / step.
  (void)orbit::grid_sample_count(options.horizon, options.step);
  Compiler compiler(model, policy, options);
  return compiler.run(pool);
}

}  // namespace qntn::plan
