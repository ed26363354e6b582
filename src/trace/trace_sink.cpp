#include "trace/trace_sink.h"

#include "trace/counters.h"

namespace trace {

namespace detail {
bool g_active = false;

void recompute_active() {
  g_active = Tracer::instance().has_sinks() ||
             CounterRegistry::instance().enabled();
}
}  // namespace detail

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

TraceSink* Tracer::attach(std::unique_ptr<TraceSink> sink) {
  sinks_.push_back(std::move(sink));
  detail::recompute_active();
  return sinks_.back().get();
}

void Tracer::flush() {
  for (const auto& s : sinks_) s->flush();
}

void Tracer::clear() {
  flush();
  sinks_.clear();
  seq_ = 0;
  time_us_ = 0;
  detail::recompute_active();
}

void Tracer::kernel(KernelEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->kernel(ev);
}

void Tracer::transfer(TransferEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->transfer(ev);
}

void Tracer::host(HostEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->host(ev);
}

void Tracer::iteration(IterationEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->iteration(ev);
}

void Tracer::decision(DecisionEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->decision(ev);
}

void Tracer::persistent(PersistentEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->persistent(ev);
}

void Tracer::fault(FaultEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->fault(ev);
}

void Tracer::service(ServiceEvent ev) {
  ev.seq = next_seq();
  for (const auto& s : sinks_) s->service(ev);
}

}  // namespace trace
