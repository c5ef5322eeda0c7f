// Provider equivalence: the contact plan decides which links exist and
// evaluates each active link's eta at the query time through the rebuild's
// own calls (TopologyBuilder::dynamic_eta), so wherever ContactPlanTopology
// and TopologyBuilder both realise a link, the etas are bitwise equal. Edge
// sets agree exactly on the compile grid; off the grid a link may appear
// in only one graph, and then only within ~1 ms of a refined window
// boundary (the bisection's precision) — or, for the rebuild alone, inside
// a sub-step window that opens and closes between two grid points, which a
// grid scan cannot see by construction. Randomized over constellation
// sizes, thresholds, masks and seeds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "plan/contact_topology.hpp"

namespace qntn::plan {
namespace {

static_assert(std::is_trivially_copyable_v<ContactWindow>);

constexpr std::size_t kSizes[] = {6, 36, 108};

using Pair = std::pair<net::NodeId, net::NodeId>;

std::map<Pair, double> edge_map(const net::Graph& graph) {
  std::map<Pair, double> out;
  for (const net::Edge& edge : graph.edges()) {
    const Pair key{std::min(edge.a, edge.b), std::max(edge.a, edge.b)};
    EXPECT_TRUE(out.emplace(key, edge.transmissivity).second)
        << "parallel edge " << key.first << "-" << key.second;
  }
  return out;
}

/// Is t within `tol` of a boundary of one of the pair's windows?
bool near_boundary(const ContactPlan& plan, const Pair& pair, double t,
                   double tol) {
  for (const ContactWindow* w : plan.pair_windows(pair.first, pair.second)) {
    if (std::abs(t - w->start) <= tol || std::abs(t - w->end) <= tol) {
      return true;
    }
  }
  return false;
}

struct Variant {
  std::size_t n = 6;
  double threshold = 0.7;
  double mask_deg = 20.0;
  std::uint64_t seed = 1;
};

std::string label(const Variant& v) {
  return "n = " + std::to_string(v.n) +
         ", threshold = " + std::to_string(v.threshold) +
         ", mask = " + std::to_string(v.mask_deg) +
         ", seed = " + std::to_string(v.seed);
}

/// Compare both providers at every grid time of the day and at off-grid
/// times: random ones and ones within 1 ms of refined window boundaries.
void check_variant(const Variant& v) {
  SCOPED_TRACE(label(v));
  core::QntnConfig config;
  config.transmissivity_threshold = v.threshold;
  config.elevation_mask = v.mask_deg * kPi / 180.0;
  const sim::NetworkModel model = core::build_space_ground_model(config, v.n);
  const sim::LinkPolicy policy = config.link_policy();
  const sim::TopologyBuilder rebuild(model, policy);
  const ContactPlan plan =
      compile_contact_plan(model, policy, config.plan_options());
  const ContactPlanTopology topology(plan, model);
  ASSERT_GT(plan.windows().size(), 0u);

  // Is the pair unlinked at both grid points around t (a sub-step window)?
  const auto sub_step = [&](const Pair& pair, double t) {
    const double step = config.plan_options().step;
    const double lo = std::floor(t / step) * step;
    for (const double grid : {lo, lo + step}) {
      if (edge_map(rebuild.graph_at(grid)).count(pair) != 0) return false;
    }
    return true;
  };

  std::size_t shared = 0;
  std::size_t one_sided = 0;
  const auto compare = [&](double t, bool on_grid) {
    const std::map<Pair, double> expected = edge_map(rebuild.graph_at(t));
    const std::map<Pair, double> actual = edge_map(topology.graph_at(t));
    for (const auto& [pair, eta] : expected) {
      const auto it = actual.find(pair);
      if (it == actual.end()) {
        ++one_sided;
        EXPECT_FALSE(on_grid) << "t = " << t << ": plan lacks " << pair.first
                              << "-" << pair.second;
        EXPECT_TRUE(near_boundary(plan, pair, t, 1e-3) || sub_step(pair, t))
            << "t = " << t << ": plan lacks " << pair.first << "-"
            << pair.second << " away from any boundary";
        continue;
      }
      ++shared;
      // Bitwise: the same calls on the same geometry.
      EXPECT_EQ(it->second, eta)
          << "t = " << t << " pair " << pair.first << "-" << pair.second;
    }
    for (const auto& [pair, eta] : actual) {
      if (expected.count(pair) != 0) continue;
      ++one_sided;
      EXPECT_FALSE(on_grid) << "t = " << t << ": rebuild lacks " << pair.first
                            << "-" << pair.second;
      EXPECT_TRUE(near_boundary(plan, pair, t, 1e-3))
          << "t = " << t << ": rebuild lacks " << pair.first << "-"
          << pair.second << " away from any boundary";
      EXPECT_GE(eta, 0.0);
      EXPECT_LE(eta, 1.0);
    }
  };

  for (std::size_t k = 0; k <= 2880; ++k) {
    compare(30.0 * static_cast<double>(k), /*on_grid=*/true);
  }
  Rng rng(v.seed);
  for (int i = 0; i < 200; ++i) {
    compare(rng.uniform(0.0, 86'400.0), /*on_grid=*/false);
  }
  // Straddle refined boundaries: up to 1 ms either side of a start or end.
  const std::vector<ContactWindow>& windows = plan.windows();
  for (int i = 0; i < 300; ++i) {
    const ContactWindow& window = windows[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(windows.size()) - 1))];
    const double boundary = i % 2 == 0 ? window.start : window.end;
    compare(boundary + rng.uniform(-1e-3, 1e-3), /*on_grid=*/false);
  }
  EXPECT_GT(shared, 0u);
  ::testing::Test::RecordProperty("one_sided_" + std::to_string(v.n),
                                  static_cast<int>(one_sided));
}

TEST(ContactPlanEquivalence, PaperModelsAgreeBitwiseWithRebuild) {
  for (const std::size_t n : kSizes) {
    check_variant({n, 0.7, 20.0, 1000 + n});
  }
}

TEST(ContactPlanEquivalence, RandomThresholdsAndMasksAgreeBitwiseWithRebuild) {
  Rng rng(2024);
  for (const std::size_t n : kSizes) {
    Variant v;
    v.n = n;
    v.threshold = rng.uniform(0.4, 0.8);
    v.mask_deg = rng.uniform(10.0, 35.0);
    v.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
    check_variant(v);
  }
}

// The same-epoch refresh and an epoch change through one snapshot slot give
// the etas a fresh graph_at does, in the same edge order.
TEST(ContactPlanEquivalence, SnapshotRefreshEqualsFreshGraph) {
  const core::QntnConfig config;
  const sim::NetworkModel model = core::build_space_ground_model(config, 36);
  const ContactPlan plan = compile_contact_plan(model, config.link_policy(),
                                                config.plan_options());
  const ContactPlanTopology topology(plan, model);
  sim::TopologySnapshot slot;
  Rng rng(77);
  double t = 0.0;
  for (int i = 0; i < 2'000; ++i) {
    // Mostly small steps (same-epoch refreshes), sometimes a jump.
    t = i % 50 == 49 ? rng.uniform(0.0, 86'400.0) : t + rng.uniform(0.0, 20.0);
    topology.snapshot_at(t, slot);
    const net::Graph fresh = topology.graph_at(t);
    ASSERT_EQ(slot.graph.edge_count(), fresh.edge_count()) << "t = " << t;
    for (std::size_t e = 0; e < fresh.edge_count(); ++e) {
      ASSERT_EQ(slot.graph.edges()[e].a, fresh.edges()[e].a);
      ASSERT_EQ(slot.graph.edges()[e].b, fresh.edges()[e].b);
      ASSERT_EQ(slot.graph.edges()[e].transmissivity,
                fresh.edges()[e].transmissivity)
          << "t = " << t << " edge " << e;
    }
  }
}

// A window is active up to a hair before its refined end, where the link
// may already be a bisection step past its true drop (below the mask or
// the threshold): the query-time eta must still evaluate, in [0, 1].
TEST(ContactPlanEquivalence, QueriesAHairPastRefinedBoundariesDoNotThrow) {
  core::QntnConfig config;
  config.enable_hap_satellite = true;
  const sim::NetworkModel model = core::build_hybrid_model(config, 36);
  const ContactPlan plan = compile_contact_plan(model, config.link_policy(),
                                                config.plan_options());
  const ContactPlanTopology topology(plan, model);
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t checked = 0;
  for (const ContactWindow& window : plan.windows()) {
    for (const double t :
         {std::nextafter(window.end, -inf), std::nextafter(window.start, inf),
          window.start, std::nextafter(window.end, inf)}) {
      std::vector<sim::LinkRecord> links;
      ASSERT_NO_THROW(links = topology.links_at(t)) << "t = " << t;
      for (const sim::LinkRecord& link : links) {
        ASSERT_GE(link.transmissivity, 0.0);
        ASSERT_LE(link.transmissivity, 1.0);
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace qntn::plan
