// Machine-parameter calibration — the paper's §III.B methodology:
//
//   "we have only been able to make our best effort … and then estimate the
//    parameters of the machine from the measured performance of the
//    application. We have configured the benchmark to match the even thread
//    allocation scenario … and estimated the hardware's performance
//    parameters from this case."
//
// Given measurements of the even-allocation mixed scenario (memory-bound
// apps that saturate every controller + one compute-bound app that does
// not), the model inverts exactly:
//
//   peak GFLOPS/thread  = compute_gflops_total / compute_thread_count
//   node bandwidth      = (mem_gflops/node)/AI_mem + (compute_gflops/node)/AI_c
//
// (the memory-bound apps absorb all bandwidth the compute app leaves, so
// total achieved bandwidth per node equals the controller's capacity).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/units.hpp"

namespace numashare::synth {

struct EvenScenarioMeasurement {
  std::uint32_t nodes = 0;
  std::uint32_t cores_per_node = 0;
  /// Memory-bound side: instances x threads_per_node threads per node, all
  /// with the same AI, jointly saturating the controller.
  std::uint32_t mem_instances = 0;
  std::uint32_t mem_threads_per_node = 0;
  ArithmeticIntensity mem_ai = 0.0;
  GFlops mem_total_gflops = 0.0;  // summed over all memory-bound instances
  /// Compute-bound side (must be unsaturated for the inversion to hold).
  std::uint32_t compute_threads_per_node = 0;
  ArithmeticIntensity compute_ai = 0.0;
  GFlops compute_total_gflops = 0.0;
};

struct Calibration {
  GFlops peak_gflops_per_thread = 0.0;
  GBps node_bandwidth = 0.0;
};

/// Invert the even scenario. Returns std::nullopt (with a reason) when the
/// measurement violates the method's preconditions — e.g. the compute app
/// turns out memory-bound, which would silently corrupt both estimates.
std::optional<Calibration> calibrate_even_scenario(const EvenScenarioMeasurement& m,
                                                   std::string* error = nullptr);

}  // namespace numashare::synth
