#include "gpu_graph/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "common/table.h"
#include "trace/counters.h"
#include "trace/json_writer.h"
#include "trace/trace_sink.h"

namespace gg {

std::uint64_t TraversalMetrics::max_ws_size() const {
  std::uint64_t m = 0;
  for (const auto& it : iterations) m = std::max(m, it.ws_size);
  return m;
}

std::string TraversalMetrics::summary() const {
  return std::to_string(iterations.size()) + " iterations, " +
         agg::Table::fmt(total_ms(), 3) + " ms, " +
         agg::Table::fmt_int(edges_processed) + " edge visits, SIMD eff " +
         agg::Table::fmt(simd_efficiency, 3) +
         (switches ? ", " + std::to_string(switches) + " switches" : "");
}

std::string TraversalMetrics::to_json() const {
  trace::JsonWriter w;
  w.begin_object();
  w.field("total_us", total_us);
  w.field("kernel_us", kernel_us);
  w.field("transfer_us", transfer_us);
  w.field("kernels", kernels);
  w.field("simd_efficiency", simd_efficiency);
  w.field("edges_processed", edges_processed);
  w.field("switches", switches);
  w.field("decisions", decisions);
  w.field("max_ws_size", max_ws_size());
  w.key("iterations").begin_array();
  for (const auto& it : iterations) {
    w.begin_object();
    w.field("iteration", it.iteration);
    w.field("ws_size", it.ws_size);
    w.field("variant", variant_name(it.variant));
    w.field("time_us", it.time_us);
    w.field("on_cpu", it.on_cpu);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void publish_iteration(const char* algo, const IterationRecord& rec,
                       double end_us) {
  auto& tracer = trace::Tracer::instance();
  if (!trace::active() || !tracer.has_sinks()) return;
  trace::IterationEvent ev;
  ev.algo = algo;
  ev.iteration = rec.iteration;
  ev.ws_size = rec.ws_size;
  ev.variant = variant_name(rec.variant);
  ev.on_cpu = rec.on_cpu;
  ev.start_us = end_us - rec.time_us;
  ev.dur_us = rec.time_us;
  tracer.iteration(ev);
}

double iteration_time_us(const IterationClock& c,
                         const simt::MarkValues* placed) {
  const auto at = [placed](const simt::ClockMark& k) {
    return placed != nullptr ? placed->at(k) : k.us;
  };
  double begin = at(c.begin);
  if (c.begin_shift) begin += at(*c.begin_shift);
  double t = at(c.end) - begin;
  if (c.time_shift) t += at(*c.time_shift);
  return t;
}

void record_iteration(TraversalMetrics& m, const char* algo,
                      IterationRecord rec, IterationClock clock,
                      simt::ClockMark end, bool held) {
  clock.end = end;
  rec.time_us = iteration_time_us(clock, nullptr);
  m.iterations.push_back(rec);
  m.clock.iterations.push_back(clock);
  if (!trace::active()) return;
  if (!held) publish_iteration(algo, rec, end.us);
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) {
    reg.counter("engine.iterations").add();
    reg.gauge("engine.max_ws_size").set_max(static_cast<double>(rec.ws_size));
  }
}

void end_traversal(TraversalMetrics& m, simt::Device& dev,
                   const simt::StatsMark& begin) {
  m.clock.begin = begin;
  m.clock.end = dev.stats_mark();
  if (!dev.recording()) resolve_clock(m, nullptr);
}

void resolve_clock(TraversalMetrics& m, const simt::MarkValues* placed) {
  TraversalClock& c = m.clock;
  AGG_CHECK(c.iterations.size() == m.iterations.size());
  for (std::size_t i = 0; i < m.iterations.size(); ++i) {
    m.iterations[i].time_us = iteration_time_us(c.iterations[i], placed);
  }
  if (placed != nullptr) {
    fill_from_device_delta(m, placed->stats[c.begin.clock.index],
                           placed->stats[c.end.clock.index],
                           placed->at(c.begin.clock), placed->at(c.end.clock));
  } else {
    fill_from_device_delta(m, c.begin.stats, c.end.stats, c.begin.clock.us,
                           c.end.clock.us);
  }
  m.clock = TraversalClock{};
}

void fill_from_device_delta(TraversalMetrics& m, const simt::DeviceStats& before,
                            const simt::DeviceStats& after, double t_begin_us,
                            double t_end_us) {
  m.total_us = t_end_us - t_begin_us;
  m.kernel_us = after.kernel_time_us - before.kernel_time_us;
  m.transfer_us = after.transfer_time_us - before.transfer_time_us;
  m.kernels = after.kernels_launched - before.kernels_launched;
  const double lane = after.lane_work - before.lane_work;
  const double lockstep = after.lockstep_work - before.lockstep_work;
  m.simd_efficiency = lockstep > 0 ? lane / lockstep : 1.0;

  // One engine run finished: roll its totals into the metrics registry.
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) {
    reg.counter("engine.traversals").add();
    reg.counter("engine.edges_processed")
        .add(static_cast<double>(m.edges_processed));
    reg.counter("rt.decisions").add(m.decisions);
    reg.counter("rt.switches").add(m.switches);
  }
}

}  // namespace gg
