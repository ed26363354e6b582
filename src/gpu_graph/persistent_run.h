// The engines' side of persistent runs (DESIGN.md "Persistent iterations").
//
// From a U_B_QU push iteration whose working set is below the bound F
// (rt::persistent_bound), iterations run inside one persistent kernel
// (simt::Device::begin_persistent): each compute and queue-generation
// kernel becomes a phase behind a grid barrier, and the per-iteration
// termination readback disappears — the device tests |WS| itself after
// every compute phase. The run ends at the first compute phase whose next
// working set is empty or reaches F; the host then reads the termination
// scalar back once and carries on exactly as after any other iteration.
// gg::FrontierLoop (frontier_launch.h) holds a traversal's one
// PersistentRuns: it calls enter() before the compute phase, test() after
// it, check_kept() after the selector, and record() in place of
// record_iteration(). BFS, unordered SSSP, CC, PageRank and MS-BFS pass it
// the bound they were given: nonzero on the serving path, PersistentBound{}
// (which never opens a run) in the paper benches. MST and the generic
// engine always pass PersistentBound{}.
//
// The same engines start with an InitKernel, below, on the serving path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "simt/device.h"

namespace gg {

// A traversal's init (simt::Device::begin_init). Under a bound with
// init_kernel set and without hybrid CPU phases, which take precedence,
// every fill and seed the engine issues until end() folds into one kernel
// `name` ("bfs.init") whose arguments are the `seeds` node ids. Otherwise
// each fill is its own kernel and each seed value a write_scalar transfer,
// as in the paper's runtime.
class InitKernel {
 public:
  InitKernel(simt::Device& dev, const PersistentBound& bound, bool hybrid,
             const char* name, std::size_t seeds) {
    if (bound.init_kernel && !hybrid) {
      scope_.emplace(dev, name, seeds * sizeof(std::uint32_t));
    }
  }

  void end() {
    if (scope_) scope_->end();
  }

 private:
  std::optional<simt::InitScope> scope_;
};

class PersistentRuns {
 public:
  // `kernel` names the run's kernel ("bfs.persistent"); `tpb` is the block
  // size of its compute phase, which sizes the resident grid.
  PersistentRuns(simt::Device& dev, const PersistentBound& bound,
                 const char* algo, const char* kernel, std::uint32_t tpb)
      : dev_(dev), bound_(bound), algo_(algo), kernel_(kernel), tpb_(tpb) {}

  bool open() const { return scope_.has_value(); }

  // Before an iteration's compute phase: opens a run when the iteration is
  // a device U_B_QU push iteration over fewer than F elements.
  void enter(const Variant& v, bool on_cpu, std::uint64_t ws_size,
             std::uint32_t iteration, const TraversalMetrics& m);

  // After the compute phase: the device's |WS| test. An open run ends here
  // unless 0 < next_ws < F, and is accounted as one kernel. The entry
  // iteration's time takes the run's placement shift and the iterations it
  // held are published at their placed times; `t_iter`, the clock of the
  // current iteration, has its start moved by the shift when the run had
  // already begun before it.
  void test(std::uint64_t next_ws, std::uint32_t iteration,
            TraversalMetrics& m, IterationClock& t_iter);

  // Inside an open run the selector must keep the running variant; the
  // derivation of F guarantees it, and this release check enforces it.
  void check_kept(const Variant& picked, const Variant& running) const {
    AGG_CHECK_MSG(!open() || picked == running,
                  "the selector left the running variant inside a "
                  "persistent run");
  }

  // record_iteration(), holding the trace event of an iteration inside an
  // open run until the run is placed.
  void record(TraversalMetrics& m, const IterationRecord& rec,
              const IterationClock& t_iter, simt::ClockMark end) {
    record_iteration(m, algo_, rec, t_iter, end, /*held=*/open());
    if (open()) held_end_us_.push_back(end.us);
  }

 private:
  void emit(const char* event, std::uint32_t iteration, std::uint64_t ws_size,
            std::uint32_t iterations) const;

  simt::Device& dev_;
  PersistentBound bound_;
  const char* algo_;
  const char* kernel_;
  std::uint32_t tpb_;
  std::optional<simt::PersistentScope> scope_;
  std::uint32_t entry_iteration_ = 0;
  std::size_t first_held_ = 0;       // m.iterations index of the entry
  std::vector<double> held_end_us_;  // provisional ends of held iterations
};

}  // namespace gg
