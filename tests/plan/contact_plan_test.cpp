#include "plan/contact_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "plan/contact_topology.hpp"

namespace qntn::plan {
namespace {

struct Edge {
  net::NodeId a = 0;
  net::NodeId b = 0;
  double eta = 0.0;
};

std::vector<Edge> normalized(const std::vector<sim::LinkRecord>& links) {
  std::vector<Edge> out;
  out.reserve(links.size());
  for (const sim::LinkRecord& link : links) {
    out.push_back({std::min(link.a, link.b), std::max(link.a, link.b),
                   link.transmissivity});
  }
  std::sort(out.begin(), out.end(), [](const Edge& x, const Edge& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return out;
}

TEST(ContactPlan, WindowsAreSortedAndClipped) {
  const core::QntnConfig config;
  const sim::NetworkModel model = core::build_space_ground_model(config, 12);
  const ContactPlan plan = compile_contact_plan(model, config.link_policy(),
                                                config.plan_options());
  ASSERT_GT(plan.windows().size(), 0u);
  double prev_start = 0.0;
  for (const ContactWindow& window : plan.windows()) {
    EXPECT_GE(window.start, 0.0);
    EXPECT_LE(window.end, plan.horizon());
    EXPECT_LT(window.start, window.end);
    EXPECT_GE(window.start, prev_start);
    prev_start = window.start;
  }
  const ContactPlanStats stats = plan.stats();
  EXPECT_EQ(stats.window_count, plan.windows().size());
  EXPECT_GT(stats.total_contact, 0.0);
}

// The core equivalence claim: at every grid time the plan realises exactly
// the links the per-step rebuild does, with bit-identical transmissivities
// (both evaluate the same budget at the same geometry).
TEST(ContactPlan, MatchesRebuildAtEveryGridTime) {
  const core::QntnConfig config;
  const sim::NetworkModel model = core::build_space_ground_model(config, 6);
  const sim::LinkPolicy policy = config.link_policy();
  const sim::TopologyBuilder rebuild(model, policy);
  const ContactPlan plan =
      compile_contact_plan(model, policy, config.plan_options());
  const ContactPlanTopology topology(plan, model);

  std::size_t dynamic_checked = 0;
  for (double t = 0.0; t <= 86'400.0; t += 30.0) {
    const std::vector<Edge> expected = normalized(rebuild.links_at(t));
    const std::vector<Edge> actual = normalized(topology.links_at(t));
    ASSERT_EQ(actual.size(), expected.size()) << "t = " << t;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].a, expected[i].a) << "t = " << t;
      EXPECT_EQ(actual[i].b, expected[i].b) << "t = " << t;
      EXPECT_EQ(actual[i].eta, expected[i].eta) << "t = " << t;
    }
    dynamic_checked += expected.size();
  }
  EXPECT_GT(dynamic_checked, 0u);
}

TEST(ContactPlan, PairWindowsAreSymmetricInArguments) {
  const core::QntnConfig config;
  const sim::NetworkModel model = core::build_space_ground_model(config, 6);
  const ContactPlan plan = compile_contact_plan(model, config.link_policy(),
                                                config.plan_options());
  ASSERT_GT(plan.windows().size(), 0u);
  const ContactWindow& window = plan.windows().front();
  EXPECT_EQ(plan.pair_windows(window.a, window.b).size(),
            plan.pair_windows(window.b, window.a).size());
  EXPECT_GT(plan.pair_windows(window.a, window.b).size(), 0u);
}

}  // namespace
}  // namespace qntn::plan
