#include "gpu_graph/persistent_run.h"

#include "trace/trace_sink.h"

namespace gg {

void PersistentRuns::enter(const Variant& v, bool on_cpu, std::uint64_t ws_size,
                           std::uint32_t iteration, const TraversalMetrics& m) {
  if (open() || on_cpu || ws_size >= bound_.ws_below) return;
  if (v.ordering != Ordering::unordered || v.mapping != Mapping::block ||
      v.repr != WorksetRepr::queue || v.direction != Direction::push) {
    return;
  }
  emit("enter", iteration, ws_size, 0);
  scope_.emplace(dev_, kernel_, tpb_);
  entry_iteration_ = iteration;
  first_held_ = m.iterations.size();
}

void PersistentRuns::test(std::uint64_t next_ws, std::uint32_t iteration,
                          TraversalMetrics& m, IterationClock& t_iter) {
  if (!open() || (next_ws > 0 && next_ws < bound_.ws_below)) return;
  const simt::ClockMark shift = scope_->end();
  scope_.reset();
  if (iteration != entry_iteration_) t_iter.begin_shift = shift;
  for (std::size_t k = 0; k < held_end_us_.size(); ++k) {
    IterationRecord& rec = m.iterations[first_held_ + k];
    // The entry iteration began before the run and so spans its placement.
    if (k == 0) {
      IterationClock& entry = m.clock.iterations[first_held_];
      entry.time_shift = shift;
      rec.time_us = iteration_time_us(entry, nullptr);
    }
    publish_iteration(algo_, rec, held_end_us_[k] + shift.us);
  }
  held_end_us_.clear();
  emit("exit", iteration, next_ws, iteration - entry_iteration_ + 1);
}

void PersistentRuns::emit(const char* event, std::uint32_t iteration,
                          std::uint64_t ws_size,
                          std::uint32_t iterations) const {
  if (!trace::active()) return;
  auto& tracer = trace::Tracer::instance();
  if (!tracer.has_sinks()) return;
  trace::PersistentEvent ev;
  ev.algo = algo_;
  ev.event = event;
  ev.iteration = iteration;
  ev.ws_size = ws_size;
  ev.bound = bound_.ws_below;
  ev.t2 = bound_.t2;
  ev.has_alpha_term = bound_.has_alpha_term;
  ev.alpha_term = bound_.alpha_term;
  ev.iterations = iterations;
  ev.ts_us = dev_.now_us();
  tracer.persistent(ev);
}

}  // namespace gg
