#include "em/swap_tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qntn::em {

void SwapPlanOptions::validate() const {
  QNTN_REQUIRE(std::isfinite(heralding_latency) && heralding_latency >= 0.0,
               "em heralding_latency must be finite and non-negative");
}

SwapPlan plan_swap_tree(std::size_t hops, const SwapPlanOptions& options) {
  QNTN_REQUIRE(hops >= 1, "a route has at least one hop");
  options.validate();
  SwapPlan plan;
  plan.hops = hops;
  plan.swaps = hops - 1;
  if (hops > 1) {
    if (options.balanced) {
      // Levels of the balanced tree: ceil(log2 hops), computed in integers.
      std::size_t depth = 0;
      std::size_t reach = 1;
      while (reach < hops) {
        reach *= 2;
        ++depth;
      }
      plan.depth = depth;
    } else {
      plan.depth = hops - 1;
    }
  }
  plan.heralding_delay =
      static_cast<double>(plan.depth) * options.heralding_latency;
  return plan;
}

double chain_transmissivity(const std::vector<double>& hop_etas) {
  double eta = 1.0;
  for (const double hop : hop_etas) {
    QNTN_REQUIRE(hop >= 0.0 && hop <= 1.0, "transmissivity must be in [0, 1]");
    eta *= hop;
  }
  return eta;
}

double swapped_chain_fidelity(const std::vector<double>& hop_etas,
                              const std::vector<double>& storage_durations,
                              const quantum::MemoryModel& memory,
                              quantum::FidelityConvention convention) {
  QNTN_REQUIRE(!hop_etas.empty(), "a chain has at least one hop");
  QNTN_REQUIRE(hop_etas.size() == storage_durations.size(),
               "one storage duration per hop");
  double population = 1.0;
  double coherence_scale = 1.0;
  for (std::size_t i = 0; i < hop_etas.size(); ++i) {
    QNTN_REQUIRE(hop_etas[i] >= 0.0 && hop_etas[i] <= 1.0,
                 "transmissivity must be in [0, 1]");
    population *= hop_etas[i] * memory.relaxation_survival(storage_durations[i]);
    coherence_scale *=
        1.0 - 2.0 * memory.dephasing_probability(storage_durations[i]);
  }
  const double jozsa = (1.0 + population) / 4.0 +
                       std::sqrt(population) * coherence_scale / 2.0;
  const double clamped = std::clamp(jozsa, 0.0, 1.0);
  return convention == quantum::FidelityConvention::Jozsa ? clamped
                                                          : std::sqrt(clamped);
}

}  // namespace qntn::em
