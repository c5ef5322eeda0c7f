#pragma once

#include <cstdint>

#include "geo/geodetic.hpp"
#include "plan/contact_plan.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"

/// \file qntn_config.hpp
/// One struct holding every parameter of the paper's evaluation (Section
/// IV) plus the FSO physics parameters our from-scratch channel model needs
/// (the paper inherits those from its reference [19]; ours are calibrated —
/// DESIGN.md §4 and tools/calibrate_fso).

namespace qntn::core {

/// How the experiment runners obtain the time-varying topology.
enum class TopologyMode {
  /// Re-evaluate every link budget at every step (sim::TopologyBuilder,
  /// the reference path).
  Rebuild,
  /// Compile a contact plan once and replay its event timeline
  /// (plan::ContactPlanTopology, the fast path).
  ContactPlan,
};

/// How request snapshots are served (DESIGN.md §11/§12); the enum lives
/// with the engines it selects.
using ServingMode = sim::ServingMode;

struct QntnConfig {
  // --- Paper parameters (Section IV). ---
  double transmissivity_threshold = 0.7;
  double elevation_mask = kPaperElevationMask;  ///< pi/9 rad = 20 deg
  double fiber_attenuation_db_per_km = 0.15;
  /// "Aperture size" 120 cm (satellite & ground) / 30 cm (HAP), read as
  /// radii (the reading consistent with the paper's operating points; see
  /// OpticalTerminal and DESIGN.md §4).
  double ground_aperture_radius = 1.20;
  double satellite_aperture_radius = 1.20;
  double hap_aperture_radius = 0.30;
  geo::Geodetic hap_position = geo::Geodetic::from_degrees(35.6692, -85.0662,
                                                           30'000.0);
  double ephemeris_step = 30.0;    ///< [s], the paper's STK sampling
  double day_duration = 86'400.0;  ///< [s]

  // --- Calibrated FSO physics (see DESIGN.md §4). ---
  double wavelength = 810.0e-9;
  double receiver_efficiency = 0.995;
  double ao_gain = 5.75;
  double zenith_transmittance = 0.9875;
  double pointing_jitter = 1.0e-7;  ///< [rad] per terminal

  // --- Simulation / workload. ---
  std::size_t request_count = 100;
  std::size_t request_steps = 100;
  std::uint64_t request_seed = 20240101;
  bool include_j2 = false;          ///< ablation A1 toggles this
  sim::LanTopology lan_topology = sim::LanTopology::FullMesh;
  bool enable_inter_satellite = true;
  bool enable_hap_satellite = false;  ///< hybrid extension (A4)
  net::CostMetric metric = net::CostMetric::InverseEta;
  quantum::FidelityConvention convention =
      quantum::FidelityConvention::Uhlmann;

  /// Weather profile applied to all FSO links (clear = paper baseline).
  channel::WeatherProfile weather = channel::clear_sky();

  // --- Contact-plan control plane (plan/, DESIGN.md §2). ---
  TopologyMode topology_mode = TopologyMode::Rebuild;
  /// Let evaluations hand their RunContext pool to run_scenario's parallel
  /// snapshot engine (DESIGN.md §9). The engine additionally requires an
  /// epoch-partitioned provider (topology_mode = ContactPlan), is bitwise
  /// deterministic, and off it falls back to the serial loop; this switch
  /// exists for A/B timing and as an escape hatch.
  bool parallel_snapshots = true;

  // --- Serving engine (DESIGN.md §12). ---
  ServingMode serving_mode = ServingMode::SingleShot;

  // --- Entanglement management (sim/em_serving.hpp, DESIGN.md §11). ---
  /// Pair halves per node memory. The pool fair-shares these across a
  /// node's incident links, so size to the topology's degree: TN-LAN clique
  /// nodes see ~14 fiber neighbours plus visible satellites, and fewer
  /// slots than links starves the later (satellite) links of buffers.
  std::size_t em_memory_slots = 32;
  double em_generation_period = 0.05;   ///< [s] between pair generations
  double em_max_storage = 1.0;          ///< [s] storage lifetime cap
  double em_memory_t1 = 10.0;           ///< [s] relaxation during storage
  double em_memory_t2 = 5.0;            ///< [s] dephasing; must be <= 2 T1
  double em_heralding_latency = 0.01;   ///< [s] per swap-tree level
  std::size_t em_k_paths = 3;           ///< disjoint candidate routes
  std::size_t em_node_capacity = 8;     ///< BSMs per relay per snapshot
  double em_fidelity_slo = 0.0;         ///< purification target; 0 = off
  std::size_t em_purify_max_rounds = 2; ///< BBPSSW round cap

  // --- Open-arrival traffic serving (sim/traffic, DESIGN.md §12). ---
  /// Poisson request arrivals per LAN [1/s] before the diurnal factor. The
  /// default 4/s across the paper's three LANs is ~1M requests/day.
  double traffic_arrival_rate = 4.0;
  /// Diurnal modulation amplitude in [0, 1]: daytime LANs arrive at
  /// rate*(1+a), night-time LANs at rate*(1-a).
  double traffic_diurnal_amplitude = 0.5;
  double traffic_service_overhead = 0.01;  ///< [s] per served request
  double traffic_max_queue_delay = 0.5;    ///< [s] queueing deadline
  std::size_t traffic_node_capacity = 8;   ///< concurrent pairs per node
  std::size_t traffic_max_backlog = 256;   ///< admission backpressure bound
  std::uint64_t traffic_seed = 20240707;   ///< arrival substream seed

  /// Derived: the sim::LinkPolicy for this configuration.
  [[nodiscard]] sim::LinkPolicy link_policy() const;

  /// Derived: the sim::ScenarioConfig for this configuration (serving
  /// mode plus the em and traffic options).
  [[nodiscard]] sim::ScenarioConfig scenario_config() const;

  /// Derived: the sim::EmOptions this configuration describes. Throws
  /// qntn::Error on invalid em parameters — including the T2 <= 2 T1
  /// memory-physicality check.
  [[nodiscard]] sim::EmOptions em_options() const;

  /// Derived: the sim::TrafficConfig this configuration describes. Throws
  /// qntn::PreconditionError on degenerate traffic parameters.
  [[nodiscard]] sim::TrafficConfig traffic_options() const;

  /// Derived: contact-plan compile options (horizon = day, step =
  /// ephemeris step, so plan and rebuild sample the same grid).
  [[nodiscard]] plan::ContactPlanOptions plan_options() const;

  /// Terminal descriptions per node class.
  [[nodiscard]] channel::OpticalTerminal ground_terminal() const;
  [[nodiscard]] channel::OpticalTerminal satellite_terminal() const;
  [[nodiscard]] channel::OpticalTerminal hap_terminal() const;
};

}  // namespace qntn::core
