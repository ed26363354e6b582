// In-memory metrics registry: named monotonic counters and gauges, queryable
// by tests and exportable as JSON (`--metrics-out`).
//
// Naming convention (DESIGN.md, "Observability"): dot-separated
// `<subsystem>.<quantity>` — e.g. `simt.transactions`, `simt.atomics`,
// `engine.edges_processed`, `rt.switches`. Counters only ever increase;
// gauges hold the latest (or max) observation.
//
// The registry is disabled by default and instrumentation sites are gated by
// the single `trace::active()` branch (trace_sink.h), so the compiled-in cost
// of the off path is one predictable-false branch per event. Updates must
// come from the host API thread (the same contract as Device itself);
// ExecPool workers record only while tracing is off, so they never touch
// the registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace trace {

struct Counter {
  double value = 0;  // double: simt transaction/atomic tallies are fractional
  void add(double d = 1) { value += d; }
};

struct Gauge {
  double value = 0;
  void set(double v) { value = v; }
  void set_max(double v) {
    if (v > value) value = v;
  }
};

class CounterRegistry {
 public:
  static CounterRegistry& instance();

  // Enabling/disabling also recomputes the global trace-active flag.
  void set_enabled(bool on);
  bool enabled() const { return enabled_; }

  // Handles are stable for the lifetime of the process (node-based map;
  // reset() zeroes values instead of erasing entries).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  // Query by name; 0 when the metric was never touched.
  double counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  void reset();

  // {"counters":{...},"gauges":{...}} with keys in lexicographic order.
  std::string to_json() const;

 private:
  CounterRegistry() = default;

  bool enabled_ = false;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
};

}  // namespace trace
