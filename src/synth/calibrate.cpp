#include "synth/calibrate.hpp"

#include "common/format.hpp"

namespace numashare::synth {

std::optional<Calibration> calibrate_even_scenario(const EvenScenarioMeasurement& m,
                                                   std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<Calibration> {
    if (error) *error = std::move(message);
    return std::nullopt;
  };
  if (m.nodes == 0 || m.cores_per_node == 0) return fail("empty machine shape");
  if (m.mem_instances == 0 || m.mem_threads_per_node == 0 || m.mem_ai <= 0.0) {
    return fail("memory-bound side not described");
  }
  if (m.compute_threads_per_node == 0 || m.compute_ai <= 0.0) {
    return fail("compute-bound side not described");
  }
  if (m.mem_total_gflops <= 0.0 || m.compute_total_gflops <= 0.0) {
    return fail("measurements must be positive");
  }

  Calibration c;
  const double compute_threads =
      static_cast<double>(m.compute_threads_per_node) * m.nodes;
  c.peak_gflops_per_thread = m.compute_total_gflops / compute_threads;

  const GFlops mem_per_node = m.mem_total_gflops / m.nodes;
  const GFlops compute_per_node = m.compute_total_gflops / m.nodes;
  c.node_bandwidth = mem_per_node / m.mem_ai + compute_per_node / m.compute_ai;

  // Precondition checks: the compute app must be compute-limited and the
  // memory side saturated, or the inversion read the wrong regime.
  const GBps mem_demand_per_node = c.peak_gflops_per_thread / m.mem_ai *
                                   m.mem_instances * m.mem_threads_per_node;
  if (mem_demand_per_node <= c.node_bandwidth * 1.05) {
    return fail(
        ns_format("memory-bound side does not saturate the controller "
                  "(demand {} vs capacity {})",
                  fmt_compact(mem_demand_per_node, 3), fmt_compact(c.node_bandwidth, 3)));
  }
  const GFlops mem_per_thread =
      mem_per_node / (m.mem_instances * m.mem_threads_per_node);
  if (mem_per_thread >= c.peak_gflops_per_thread * 0.95) {
    return fail("memory-bound side is running at compute peak; AI too high");
  }
  return c;
}

}  // namespace numashare::synth
