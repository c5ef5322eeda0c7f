#include "orbit/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/units.hpp"
#include "geo/frames.hpp"
#include "orbit/constellation.hpp"

namespace qntn::orbit {
namespace {

const geo::Geodetic kCookeville = geo::Geodetic::from_degrees(36.18, -85.51, 0.0);

Ephemeris day_ephemeris(std::size_t which = 0) {
  const auto elements = qntn_constellation(6);
  return Ephemeris::generate(TwoBodyPropagator(elements[which]), 86'400.0, 30.0);
}

TEST(Passes, LeoPassesExistAndAreShort) {
  const Ephemeris eph = day_ephemeris();
  const auto passes =
      find_passes(eph, kCookeville, 86'400.0, deg_to_rad(20.0));
  ASSERT_GT(passes.size(), 0u);
  for (const Pass& pass : passes) {
    EXPECT_LT(pass.aos, pass.los);
    EXPECT_GE(pass.culmination, pass.aos);
    EXPECT_LE(pass.culmination, pass.los);
    // A 500 km pass above 20 deg lasts minutes, not hours.
    EXPECT_LT(pass.duration(), 12.0 * 60.0);
    EXPECT_GT(pass.duration(), 10.0);
    EXPECT_GE(pass.max_elevation, deg_to_rad(20.0));
    EXPECT_LE(pass.max_elevation, deg_to_rad(90.0) + 1e-9);
  }
}

TEST(Passes, RefinedCrossingsSitOnTheMask) {
  const Ephemeris eph = day_ephemeris();
  const double mask = deg_to_rad(25.0);
  const auto passes = find_passes(eph, kCookeville, 86'400.0, mask);
  ASSERT_GT(passes.size(), 0u);
  for (const Pass& pass : passes) {
    if (pass.aos > 0.0) {  // interior crossing, not clipped at t = 0
      const double el =
          geo::look_angles(kCookeville, eph.position_ecef(pass.aos)).elevation;
      EXPECT_NEAR(el, mask, 1e-3) << "aos";
    }
    if (pass.los < 86'400.0) {
      const double el =
          geo::look_angles(kCookeville, eph.position_ecef(pass.los)).elevation;
      EXPECT_NEAR(el, mask, 1e-3) << "los";
    }
  }
}

TEST(Passes, HigherMaskMeansFewerShorterPasses) {
  const Ephemeris eph = day_ephemeris();
  const auto low = find_passes(eph, kCookeville, 86'400.0, deg_to_rad(10.0));
  const auto high = find_passes(eph, kCookeville, 86'400.0, deg_to_rad(45.0));
  const PassStatistics low_stats = summarize_passes(low);
  const PassStatistics high_stats = summarize_passes(high);
  EXPECT_GT(low_stats.total_contact, high_stats.total_contact);
  EXPECT_GE(low_stats.count, high_stats.count);
  if (high_stats.count > 0) {
    EXPECT_LT(high_stats.mean_duration, low_stats.mean_duration);
  }
}

TEST(Passes, PassesAreDisjointAndOrdered) {
  const Ephemeris eph = day_ephemeris(3);
  const auto passes = find_passes(eph, kCookeville, 86'400.0, deg_to_rad(20.0));
  for (std::size_t i = 1; i < passes.size(); ++i) {
    EXPECT_GT(passes[i].aos, passes[i - 1].los);
  }
}

TEST(Passes, EmptyWhenMaskUnreachable) {
  const Ephemeris eph = day_ephemeris();
  // An 89.9 deg mask is (essentially) never met.
  const auto passes =
      find_passes(eph, kCookeville, 86'400.0, deg_to_rad(89.9));
  EXPECT_TRUE(passes.empty());
}

TEST(Passes, SummaryOfEmptyListIsZero) {
  const PassStatistics stats = summarize_passes({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.total_contact, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_duration, 0.0);
}

// Re-base the day ephemeris so simulation time zero lands at `offset`
// seconds into the original trajectory (mimics starting the sim mid-pass).
Ephemeris shifted_ephemeris(const Ephemeris& eph, std::size_t offset_steps) {
  std::vector<Vec3> samples;
  for (std::size_t i = offset_steps; i < eph.sample_count(); ++i) {
    samples.push_back(eph.sample(i));
  }
  return Ephemeris(std::move(samples), eph.step());
}

TEST(Passes, PassInProgressAtTimeZeroClipsToZero) {
  const Ephemeris day = day_ephemeris();
  const double mask = deg_to_rad(20.0);
  const auto day_passes = find_passes(day, kCookeville, 86'400.0, mask);
  ASSERT_GT(day_passes.size(), 0u);
  // Re-base so t = 0 sits at a culmination: the pass is already in
  // progress when the clock starts.
  const Pass& reference = day_passes.front();
  const auto offset =
      static_cast<std::size_t>(reference.culmination / day.step());
  const Ephemeris shifted = shifted_ephemeris(day, offset);
  const auto passes = find_passes(shifted, kCookeville, shifted.duration(), mask);
  ASSERT_GT(passes.size(), 0u);
  EXPECT_DOUBLE_EQ(passes.front().aos, 0.0);
  EXPECT_GE(geo::look_angles(kCookeville, shifted.position_ecef(0.0)).elevation,
            mask);
}

TEST(Passes, PassStraddlingTheEndClipsToDuration) {
  const Ephemeris day = day_ephemeris();
  const double mask = deg_to_rad(20.0);
  const auto day_passes = find_passes(day, kCookeville, 86'400.0, mask);
  ASSERT_GT(day_passes.size(), 0u);
  // Cut the scan window in the middle of a known pass.
  const Pass& reference = day_passes.front();
  const double cut = reference.culmination;
  const auto clipped = find_passes(day, kCookeville, cut, mask);
  ASSERT_GT(clipped.size(), 0u);
  const Pass& last = clipped.back();
  EXPECT_DOUBLE_EQ(last.los, cut);
  EXPECT_NEAR(last.aos, reference.aos, 1e-6);
  EXPECT_LE(last.max_elevation, reference.max_elevation + 1e-12);
}

// Reference pass search, the specification of find_passes: every grid
// point t = k * step (the last one clipped to the duration) gets the exact
// elevation, with no screen, and a crossing is bisected on the grid step
// before it.
double reference_crossing(const Ephemeris& eph, const geo::Geodetic& site,
                          double mask, double lo, double hi, bool rising) {
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const bool above =
        geo::look_angles(site, eph.position_ecef(mid)).elevation >= mask;
    if (above == rising) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo < 1e-3) break;
  }
  return 0.5 * (lo + hi);
}

std::vector<Pass> reference_passes(const Ephemeris& eph,
                                   const geo::Geodetic& site, double duration,
                                   double mask, double step) {
  const auto elevation = [&](double t) {
    return geo::look_angles(site, eph.position_ecef(t)).elevation;
  };
  std::vector<Pass> passes;
  Pass current;
  bool in_pass = elevation(0.0) >= mask;
  if (in_pass) current.max_elevation = elevation(0.0);
  double prev_t = 0.0;
  for (std::size_t k = 1; prev_t < duration; ++k) {
    const double t = std::min(static_cast<double>(k) * step, duration);
    const double el = elevation(t);
    if (el >= mask && !in_pass) {
      current = Pass{};
      current.aos = reference_crossing(eph, site, mask, prev_t, t, true);
      current.max_elevation = el;
      current.culmination = t;
      in_pass = true;
    } else if (el >= mask && el > current.max_elevation) {
      current.max_elevation = el;
      current.culmination = t;
    } else if (el < mask && in_pass) {
      current.los = reference_crossing(eph, site, mask, prev_t, t, false);
      passes.push_back(current);
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

// The horizon screen is exact: the merged scan returns the reference's
// passes bit for bit, with the screen on (positive masks) and off (mask 0),
// on a duration that is not a multiple of the step and on a scan step
// unequal to the ephemeris step.
TEST(Passes, MatchesReferenceGridLoop) {
  struct Case {
    std::size_t which;
    double duration;
    double step;
  };
  for (const Case c : {Case{0, 86'400.0, 30.0}, Case{3, 86'400.0, 30.0},
                       Case{1, 50'017.0, 30.0}, Case{2, 86'400.0, 45.0},
                       Case{4, 40'000.0, 20.0}}) {
    const Ephemeris eph = day_ephemeris(c.which);
    for (const double mask_deg : {0.0, 10.0, 20.0, 45.0}) {
      const double mask = deg_to_rad(mask_deg);
      const auto expected =
          reference_passes(eph, kCookeville, c.duration, mask, c.step);
      const auto actual =
          find_passes(eph, kCookeville, c.duration, mask, c.step);
      ASSERT_EQ(actual.size(), expected.size())
          << "sat " << c.which << " mask " << mask_deg;
      // Every satellite rises above 20 deg over Cookeville within a day.
      if (mask_deg <= 20.0) {
        EXPECT_FALSE(expected.empty()) << "sat " << c.which;
      }
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].aos, expected[i].aos) << "pass " << i;
        EXPECT_EQ(actual[i].los, expected[i].los) << "pass " << i;
        EXPECT_EQ(actual[i].culmination, expected[i].culmination);
        EXPECT_EQ(actual[i].max_elevation, expected[i].max_elevation);
      }
    }
  }
}

TEST(Passes, RejectsBadArguments) {
  const Ephemeris eph = day_ephemeris();
  EXPECT_THROW((void)find_passes(eph, kCookeville, 0.0, 0.3), PreconditionError);
  EXPECT_THROW((void)find_passes(eph, kCookeville, 100.0, 0.3, 0.0),
               PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)find_passes(eph, kCookeville, inf, 0.3), PreconditionError);
  EXPECT_THROW((void)find_passes(eph, kCookeville, nan, 0.3), PreconditionError);
  EXPECT_THROW((void)find_passes(eph, kCookeville, 100.0, 0.3, nan),
               PreconditionError);
  // A step so small the grid would not fit: rejected before any scan.
  EXPECT_THROW((void)find_passes(eph, kCookeville, 86'400.0, 0.3, 1e-300),
               PreconditionError);
}

}  // namespace
}  // namespace qntn::orbit
