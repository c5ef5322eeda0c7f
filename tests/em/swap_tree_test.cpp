#include "em/swap_tree.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "quantum/channels.hpp"
#include "quantum/memory.hpp"
#include "quantum/swapping.hpp"

namespace qntn::em {
namespace {

using quantum::FidelityConvention;
using quantum::MemoryModel;

TEST(SwapPlan, BalancedTreeHasLogarithmicDepth) {
  SwapPlanOptions options;
  options.heralding_latency = 0.01;
  const struct {
    std::size_t hops;
    std::size_t depth;
  } expected[] = {{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}};
  for (const auto& e : expected) {
    const SwapPlan plan = plan_swap_tree(e.hops, options);
    EXPECT_EQ(plan.hops, e.hops);
    EXPECT_EQ(plan.swaps, e.hops - 1);
    EXPECT_EQ(plan.depth, e.depth) << e.hops << " hops";
    EXPECT_DOUBLE_EQ(plan.heralding_delay,
                     static_cast<double>(e.depth) * 0.01);
  }
}

TEST(SwapPlan, LinearChainHasLinearDepth) {
  SwapPlanOptions options;
  options.balanced = false;
  for (const std::size_t hops : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
    EXPECT_EQ(plan_swap_tree(hops, options).depth, hops - 1);
  }
}

TEST(SwapPlan, RejectsZeroHops) {
  EXPECT_THROW((void)plan_swap_tree(0, SwapPlanOptions{}), Error);
}

TEST(SwapPlan, RejectsNegativeAndNonFiniteLatency) {
  // An infinite latency would price a one-hop route's storage as 0 x inf =
  // NaN, which the memory model rejects mid-run; it must fail here instead.
  for (const double latency :
       {-0.01, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(latency);
    SwapPlanOptions options;
    options.heralding_latency = latency;
    EXPECT_THROW(options.validate(), Error);
    EXPECT_THROW((void)plan_swap_tree(1, options), Error);
  }
  SwapPlanOptions instant;
  instant.heralding_latency = 0.0;
  EXPECT_NO_THROW(instant.validate());
}

TEST(SwapTree, ChainTransmissivityIsTheProduct) {
  EXPECT_DOUBLE_EQ(chain_transmissivity({0.9, 0.8, 0.5}), 0.9 * 0.8 * 0.5);
  EXPECT_DOUBLE_EQ(chain_transmissivity({}), 1.0);
}

TEST(SwapTree, SingleHopMatchesStoredPairFidelity) {
  const MemoryModel memory{10.0, 5.0};
  for (const double eta : {1.0, 0.9, 0.7, 0.4}) {
    for (const double d : {0.0, 0.05, 0.3}) {
      EXPECT_DOUBLE_EQ(
          swapped_chain_fidelity({eta}, {d}, memory,
                                 FidelityConvention::Uhlmann),
          memory.stored_pair_fidelity(eta, d))
          << "eta=" << eta << " d=" << d;
    }
  }
}

/// The load-bearing physics pin: the closed form the serving loop prices
/// routes with must agree with the full density-matrix protocol — build
/// each hop pair (PhiPlus half through AD(eta), then stored in the memory
/// for its duration), swap the chain, compare fidelities.
TEST(SwapTree, ClosedFormMatchesDensityMatrixSwapChain) {
  const MemoryModel memory{2.0, 1.0};
  const struct {
    std::vector<double> etas;
    std::vector<double> durations;
  } cases[] = {
      {{0.9, 0.8}, {0.0, 0.0}},
      {{0.9, 0.8}, {0.1, 0.05}},
      {{0.95, 0.7, 0.85}, {0.02, 0.2, 0.08}},
      {{0.7, 0.7, 0.7, 0.7}, {0.05, 0.05, 0.05, 0.05}},
      {{1.0, 1.0}, {0.5, 0.25}},
  };
  for (const auto& c : cases) {
    std::vector<quantum::Matrix> pairs;
    for (std::size_t i = 0; i < c.etas.size(); ++i) {
      const quantum::Matrix damped = quantum::transmit_bell_half(c.etas[i]);
      pairs.push_back(memory.store(damped, 1, c.durations[i]));
    }
    const quantum::SwapResult swapped = quantum::swap_chain(pairs);
    const double closed = swapped_chain_fidelity(
        c.etas, c.durations, memory, FidelityConvention::Uhlmann);
    EXPECT_NEAR(closed, swapped.fidelity, 1e-9)
        << c.etas.size() << "-hop chain";
  }
}

TEST(SwapTree, JozsaConventionIsTheSquare) {
  const MemoryModel memory{10.0, 5.0};
  const std::vector<double> etas{0.9, 0.8};
  const std::vector<double> durations{0.1, 0.2};
  const double uhlmann =
      swapped_chain_fidelity(etas, durations, memory,
                             FidelityConvention::Uhlmann);
  const double jozsa = swapped_chain_fidelity(etas, durations, memory,
                                              FidelityConvention::Jozsa);
  EXPECT_NEAR(uhlmann * uhlmann, jozsa, 1e-12);
}

TEST(SwapTree, StorageOnlyDegradesFidelity) {
  const MemoryModel memory{1.0, 0.5};
  const std::vector<double> etas{0.9, 0.9};
  const double fresh = swapped_chain_fidelity(etas, {0.0, 0.0}, memory,
                                              FidelityConvention::Uhlmann);
  const double stale = swapped_chain_fidelity(etas, {0.3, 0.3}, memory,
                                              FidelityConvention::Uhlmann);
  EXPECT_LT(stale, fresh);
}

TEST(SwapTree, RejectsMismatchedDurations) {
  const MemoryModel memory{10.0, 5.0};
  EXPECT_THROW((void)swapped_chain_fidelity({0.9, 0.8}, {0.0}, memory,
                                            FidelityConvention::Uhlmann),
               Error);
  EXPECT_THROW(
      (void)swapped_chain_fidelity({}, {}, memory, FidelityConvention::Uhlmann),
      Error);
}

}  // namespace
}  // namespace qntn::em
