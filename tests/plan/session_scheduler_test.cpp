#include "plan/session_scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "orbit/ephemeris.hpp"

namespace qntn::plan {
namespace {

// Two single-node LANs plus two satellites with trivial (stationary)
// ephemerides; contact windows are hand-crafted so every schedule decision
// is checkable on paper.
sim::NetworkModel two_lan_model(std::size_t n_satellites) {
  sim::NetworkModel model;
  const channel::OpticalTerminal terminal{1.2, 1e-7};
  model.add_lan("A", {geo::Geodetic::from_degrees(35.0, -90.0, 0.0)}, terminal);
  model.add_lan("B", {geo::Geodetic::from_degrees(36.0, -84.0, 0.0)}, terminal);
  for (std::size_t i = 0; i < n_satellites; ++i) {
    const Vec3 position{7'000'000.0, 0.0, static_cast<double>(i) * 1'000.0};
    model.add_satellite("sat" + std::to_string(i),
                        orbit::Ephemeris({position, position}, 30.0), terminal);
  }
  return model;
}

ContactWindow window(net::NodeId a, net::NodeId b, double start, double end) {
  ContactWindow w;
  w.a = a;
  w.b = b;
  w.start = start;
  w.end = end;
  return w;
}

// Node ids: LAN A node = 0, LAN B node = 1, satellites = 2 and 3.
ContactPlan crafted_plan() {
  std::vector<ContactWindow> windows;
  // Relay 2 sees A over [0, 100) and B over [40, 120): bridge [40, 100).
  windows.push_back(window(0, 2, 0.0, 100.0));
  windows.push_back(window(1, 2, 40.0, 120.0));
  // Relay 3 sees A over [90, 200) and B over [80, 210): bridge [90, 200).
  windows.push_back(window(0, 3, 90.0, 200.0));
  windows.push_back(window(1, 3, 80.0, 210.0));
  return ContactPlan(std::move(windows), {}, 4, 86'400.0, sim::LinkPolicy{});
}

TEST(SessionScheduler, BridgeIntervalsAndTimeline) {
  const sim::NetworkModel model = two_lan_model(2);
  const ContactPlan plan = crafted_plan();
  const SessionScheduler scheduler(plan, model);

  const auto& bridges = scheduler.pair_bridges(0, 1);
  ASSERT_EQ(bridges.size(), 2u);
  ASSERT_EQ(bridges[0].intervals.size(), 1u);
  EXPECT_EQ(bridges[0].intervals[0], (Interval{40.0, 100.0}));
  ASSERT_EQ(bridges[1].intervals.size(), 1u);
  EXPECT_EQ(bridges[1].intervals[0], (Interval{90.0, 200.0}));

  const auto& timeline = scheduler.pair_timeline(0, 1);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0], (Interval{40.0, 200.0}));
  // Argument order must not matter.
  EXPECT_EQ(scheduler.pair_timeline(1, 0), timeline);
}

TEST(SessionScheduler, EarliestFeasiblePlacementWithHandover) {
  const sim::NetworkModel model = two_lan_model(2);
  const ContactPlan plan = crafted_plan();
  const SessionScheduler scheduler(plan, model);

  // 100 s of bridging, available from t = 0: must start at 40 (the first
  // feasible instant), ride relay 2 until its bridge ends at 100, then hand
  // over to relay 3 — exactly one handover.
  const SessionSchedule schedule =
      scheduler.schedule({{0, 1, /*arrival=*/0.0, /*duration=*/100.0}});
  EXPECT_TRUE(schedule.blocked.empty());
  ASSERT_EQ(schedule.sessions.size(), 1u);
  const ScheduledSession& session = schedule.sessions[0];
  EXPECT_DOUBLE_EQ(session.start, 40.0);
  EXPECT_DOUBLE_EQ(session.end, 140.0);
  ASSERT_EQ(session.relays.size(), 2u);
  EXPECT_EQ(session.relays[0], 2u);
  EXPECT_EQ(session.relays[1], 3u);
  EXPECT_EQ(session.handovers(), 1u);
  EXPECT_DOUBLE_EQ(schedule.wait.mean(), 40.0);
}

TEST(SessionScheduler, SingleRelayWhenOneSuffices) {
  const sim::NetworkModel model = two_lan_model(2);
  const ContactPlan plan = crafted_plan();
  const SessionScheduler scheduler(plan, model);
  // Arriving at 150 with a short session: relay 3 alone covers it.
  const SessionSchedule schedule = scheduler.schedule({{0, 1, 150.0, 30.0}});
  ASSERT_EQ(schedule.sessions.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.sessions[0].start, 150.0);
  EXPECT_EQ(schedule.sessions[0].relays, std::vector<net::NodeId>{3});
  EXPECT_EQ(schedule.sessions[0].handovers(), 0u);
  EXPECT_DOUBLE_EQ(schedule.wait.mean(), 0.0);
}

TEST(SessionScheduler, BlocksWhatNeverFits) {
  const sim::NetworkModel model = two_lan_model(2);
  const ContactPlan plan = crafted_plan();
  const SessionScheduler scheduler(plan, model);
  // The whole feasibility timeline is 160 s; 300 s can never fit, and an
  // arrival after the last window finds nothing either.
  const SessionSchedule schedule =
      scheduler.schedule({{0, 1, 0.0, 300.0}, {0, 1, 250.0, 10.0}});
  EXPECT_TRUE(schedule.sessions.empty());
  EXPECT_EQ(schedule.blocked, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(schedule.blocked_fraction(2), 1.0);
}

TEST(SessionScheduler, StaticLinksBridgePermanently) {
  // A HAP wired to both LANs by static links bridges at any hour with no
  // handovers (the air-ground architecture's defining property).
  sim::NetworkModel model;
  const channel::OpticalTerminal terminal{1.2, 1e-7};
  model.add_lan("A", {geo::Geodetic::from_degrees(35.0, -90.0, 0.0)}, terminal);
  model.add_lan("B", {geo::Geodetic::from_degrees(36.0, -84.0, 0.0)}, terminal);
  const net::NodeId hap = model.add_hap(
      "HAP", geo::Geodetic::from_degrees(35.5, -87.0, 30'000.0), terminal);
  std::vector<sim::LinkRecord> static_links = {{0, hap, 0.9}, {1, hap, 0.9}};
  const ContactPlan plan({}, std::move(static_links), 3, 86'400.0,
                         sim::LinkPolicy{});
  const SessionScheduler scheduler(plan, model);
  const SessionSchedule schedule = scheduler.schedule({{0, 1, 50'000.0, 3'600.0}});
  ASSERT_EQ(schedule.sessions.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.sessions[0].start, 50'000.0);
  EXPECT_EQ(schedule.sessions[0].relays, std::vector<net::NodeId>{hap});
  EXPECT_EQ(schedule.sessions[0].handovers(), 0u);
}

TEST(SessionScheduler, RejectsInvalidRequests) {
  const sim::NetworkModel model = two_lan_model(1);
  const ContactPlan plan({}, {}, 3, 86'400.0, sim::LinkPolicy{});
  const SessionScheduler scheduler(plan, model);
  EXPECT_THROW((void)scheduler.schedule({{0, 0, 0.0, 10.0}}),
               PreconditionError);
  EXPECT_THROW((void)scheduler.schedule({{0, 1, 0.0, 0.0}}), PreconditionError);
}

TEST(SessionScheduler, CompiledPlanEndToEnd) {
  // Smoke the scheduler on a real compiled plan: a dense constellation must
  // admit short sessions between the paper's LANs.
  const core::QntnConfig config;
  const sim::NetworkModel model = core::build_space_ground_model(config, 54);
  const ContactPlan plan = compile_contact_plan(model, config.link_policy(),
                                                config.plan_options());
  const SessionScheduler scheduler(plan, model);
  std::vector<SessionRequest> requests;
  for (std::size_t a = 0; a < model.lan_count(); ++a) {
    for (std::size_t b = a + 1; b < model.lan_count(); ++b) {
      requests.push_back({a, b, 0.0, 60.0});
    }
  }
  const SessionSchedule schedule = scheduler.schedule(requests);
  EXPECT_GT(schedule.sessions.size(), 0u);
  for (const ScheduledSession& session : schedule.sessions) {
    EXPECT_GE(session.start, 0.0);
    EXPECT_GT(session.relays.size(), 0u);
  }
}

}  // namespace
}  // namespace qntn::plan
