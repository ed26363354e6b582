// Per-traversal metrics recorded by the engines: drives the evaluation
// benches (working-set evolution, speedups, decision traces) and the
// adaptive runtime's own monitoring.
#pragma once

#include <cstdint>
#include <optional>
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

// Where an iteration read the device clock (simt::Device::mark): its begin
// and end, and the persistent-run shifts that move them once the run is
// placed (PersistentRuns::test). iteration_time_us turns it into time_us.
struct IterationClock {
  explicit IterationClock(simt::ClockMark at_begin = {}) : begin(at_begin) {}

  simt::ClockMark begin;
  simt::ClockMark end;
  std::optional<simt::ClockMark> begin_shift;  // added to begin
  std::optional<simt::ClockMark> time_shift;   // added to the time
};

// Where a traversal read the clock and the device stats. On an accounting
// device end_traversal resolves the marks at once and clears them; a
// traversal simulated on a recording device keeps them until its recording
// is committed (DESIGN.md "Query-parallel drains").
struct TraversalClock {
  simt::StatsMark begin;
  simt::StatsMark end;
  std::vector<IterationClock> iterations;  // parallel to the records
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
  // Unresolved clock marks (see TraversalClock); empty once resolved.
  TraversalClock clock;

  double total_ms() const { return total_us / 1000.0; }
  std::uint64_t max_ws_size() const;
  std::string summary() const;
  // Full JSON document (iterations array + scalar fields); `--metrics-out`
  // and the exporter tests parse this back with trace::json_parse.
  std::string to_json() const;
};

// The time of an iteration: end - begin, each moved by its shift, with the
// marks' values measured by `placed` (a committed recording) or, when null,
// their own.
double iteration_time_us(const IterationClock& c,
                         const simt::MarkValues* placed);

// Appends `rec`, timed from `clock` begun at the iteration's start and ended
// at `end`, to m.iterations and, when tracing is active, publishes it as an
// IterationEvent on the host track (ending at `end`, the device's modeled
// clock after the iteration's final sync) and bumps the engine.* counters.
// A `held` record is not published yet: an iteration inside a persistent
// run is published once the run is placed (gpu_graph/persistent_run.h).
void record_iteration(TraversalMetrics& m, const char* algo,
                      IterationRecord rec, IterationClock clock,
                      simt::ClockMark end, bool held = false);

// Ends a traversal begun at `begin` (simt::Device::stats_mark): marks the
// end and, on an accounting device, resolves the metrics at once.
void end_traversal(TraversalMetrics& m, simt::Device& dev,
                   const simt::StatsMark& begin);
// Turns m.clock into total_us, kernel_us, transfer_us, kernels,
// simd_efficiency (fill_from_device_delta) and every iteration's time_us,
// with the values `placed` measured (null: the marks' own), then clears it.
void resolve_clock(TraversalMetrics& m, const simt::MarkValues* placed);
// The IterationEvent half of record_iteration.
void publish_iteration(const char* algo, const IterationRecord& rec,
                       double end_us);

// Captures the difference of two DeviceStats snapshots into metrics fields.
void fill_from_device_delta(TraversalMetrics& m, const simt::DeviceStats& before,
                            const simt::DeviceStats& after, double t_begin_us,
                            double t_end_us);

}  // namespace gg
