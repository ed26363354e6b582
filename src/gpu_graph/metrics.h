// Per-traversal metrics recorded by the engines: drives the evaluation
// benches (working-set evolution, speedups, decision traces) and the
// adaptive runtime's own monitoring.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpu_graph/variant.h"
#include "simt/device.h"

namespace gg {

struct IterationRecord {
  std::uint32_t iteration = 0;
  std::uint64_t ws_size = 0;   // working-set size processed this iteration
  Variant variant;             // implementation used this iteration
  double time_us = 0;          // modeled device + sync time of this iteration
  bool on_cpu = false;         // hybrid execution: processed on the host
};

struct TraversalMetrics {
  std::vector<IterationRecord> iterations;
  double total_us = 0;      // end to end, including initial/final transfers
  double kernel_us = 0;
  double transfer_us = 0;
  std::uint64_t kernels = 0;
  double simd_efficiency = 1.0;
  std::uint64_t edges_processed = 0;  // adjacency entries visited on device
  std::uint32_t switches = 0;         // adaptive: variant changes performed
  std::uint32_t decisions = 0;        // adaptive: decision points evaluated

  double total_ms() const { return total_us / 1000.0; }
  std::uint64_t max_ws_size() const;
  std::string summary() const;
  // Full JSON document (iterations array + scalar fields); `--metrics-out`
  // and the exporter tests parse this back with trace::json_parse.
  std::string to_json() const;
};

// Appends `rec` to m.iterations and, when tracing is active, publishes it as
// an IterationEvent on the host track (start derived from `end_us`, the
// device's modeled clock after the iteration's final sync) and bumps the
// engine.* counters. A `held` record is not published yet: an iteration
// inside a persistent run is published once the run is placed
// (gpu_graph/persistent_run.h).
void record_iteration(TraversalMetrics& m, const char* algo,
                      const IterationRecord& rec, double end_us,
                      bool held = false);
// The IterationEvent half of record_iteration.
void publish_iteration(const char* algo, const IterationRecord& rec,
                       double end_us);

// Captures the difference of two DeviceStats snapshots into metrics fields.
void fill_from_device_delta(TraversalMetrics& m, const simt::DeviceStats& before,
                            const simt::DeviceStats& after, double t_begin_us,
                            double t_end_us);

}  // namespace gg
