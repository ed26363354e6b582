// Persistent host worker pool for the deterministic parallel launch path.
//
// A kernel launch that declares its blocks functionally independent
// (LaunchPolicy::parallel(), see launch.h) is sharded across this pool:
// executed blocks are split into fixed-size chunks, workers pull chunks
// dynamically, and every block's cost is written into a slot owned by that
// block alone. The launcher then reduces the per-block results in canonical
// block order, so the final KernelStats are bit-identical to a run on one
// thread — which chunk a worker happens to grab never influences a number.
//
// Each worker owns private tracing scratch (WarpTrace, AtomicTally,
// BlockSharedState) instead of sharing the Device-owned singletons the
// serial simulator used. Per-worker atomic tallies are integer per-address
// counters, so merging them in any order reproduces the serial tally.
//
// The same workers also run tasks: whole units of simulation, such as a
// GraphService drain's recordings (DESIGN.md "Query-parallel drains").
//
// Thread count: ExecPool::set_threads() (the --sim-threads flag), else the
// SIMT_THREADS environment variable, else std::thread::hardware_concurrency.
// 1 = exact legacy behavior: every launch runs inline on the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "simt/kernel.h"
#include "simt/warp_trace.h"

namespace simt {

// The largest simulator thread count a flag or SIMT_THREADS may ask for.
inline constexpr int kMaxThreads = 512;

// Parses a thread count: a whole decimal number in [1, kMaxThreads] and
// nothing else. The one reading of --sim-threads and SIMT_THREADS; nullopt
// for anything else ("abc", "0", "-2", "4x", "600").
std::optional<int> parse_threads(std::string_view text);

// Private per-worker launch scratch, reused across launches to avoid
// allocation churn (the same reason Device used to own one of each).
struct WorkerScratch {
  WarpTrace trace;
  AtomicTally tally;
  BlockSharedState shared;
};

class ExecPool {
 public:
  // Executed blocks are handed out in chunks of this many consecutive
  // indices. The chunking is part of the execution contract only, never of
  // the reduction: results are reduced per block, so the constant affects
  // scheduling granularity, not numerics.
  static constexpr std::uint64_t kChunkBlocks = 8;

  // The process-wide pool (workers are started lazily on first parallel
  // dispatch and persist across launches and Devices).
  static ExecPool& instance();

  // Sets the worker count. n >= 1 is explicit; n == 0 restores the default
  // resolution (SIMT_THREADS env, else hardware concurrency). Takes effect
  // on the next launch; existing workers are resized on demand.
  static void set_threads(int n);
  // The resolved current thread count (>= 1).
  static int threads();

  // Runs f(scratch, concurrent, index) for every index in [0, count).
  // Serial mode (parallel == false, or one thread, or a launch too small to
  // shard) executes indices in order on the calling thread with
  // concurrent == false. Pooled mode executes fixed chunks on the pool with
  // concurrent == true; f must then only depend on `index` (not on
  // execution order) and must write results only to per-index slots.
  // Worker scratch is rebound to `tm` and tallies are reset before any f
  // runs; merged_tally() is valid after return.
  template <typename F>
  void run_blocks(std::uint64_t count, bool parallel, const TimingModel& tm,
                  F&& f) {
    if (WorkerScratch* own = task_scratch(tm)) {
      // Inside a task: inline on the worker's own scratch, never a nested
      // dispatch.
      for (std::uint64_t i = 0; i < count; ++i) f(*own, /*concurrent=*/false, i);
      return;
    }
    const int n = threads();
    const bool pooled = parallel && n > 1 && count > kChunkBlocks &&
                        tasks_open_.load(std::memory_order_relaxed) == 0;
    prepare(pooled ? n : 1, tm);
    if (!pooled) {
      WorkerScratch& ws = scratch(0);
      for (std::uint64_t i = 0; i < count; ++i) f(ws, /*concurrent=*/false, i);
      return;
    }
    auto chunk = [&f](WorkerScratch& ws, std::uint64_t begin, std::uint64_t end) {
      for (std::uint64_t i = begin; i < end; ++i) f(ws, /*concurrent=*/true, i);
    };
    dispatch(count, &chunk,
             [](void* env, WorkerScratch& ws, std::uint64_t begin, std::uint64_t end) {
               (*static_cast<decltype(chunk)*>(env))(ws, begin, end);
             });
  }

  // Folds the tallies of every worker used by the last run_blocks() into
  // worker 0's tally and returns it (see AtomicTally::merge_into on why the
  // fold order cannot matter). Inside a task: the worker's own tally.
  AtomicTally& merged_tally();

  // ---- tasks (DESIGN.md "Query-parallel drains") ----
  // A unit of work for a pool worker, run at most once. While any task is
  // submitted and not yet waited for or claimed, launches on other threads
  // run their blocks serially, so the workers stay on tasks.
  class Task {
   public:
    virtual ~Task() = default;
    virtual void run() = 0;

   private:
    friend class ExecPool;
    enum class State : std::uint8_t { idle, queued, running, done };
    State state_ = State::idle;
  };
  // Queues t (needs threads() >= 2). Tasks run on threads() / 2 - 1
  // workers (at least one) and on the thread that wait()s, which runs them
  // on its own launch scratch: half the threads, because each thread that
  // runs tasks keeps its own launch scratch and malloc heap.
  void submit(Task& t);
  // Takes back a task no thread has started: true when it was still queued
  // (it will never run). False once a thread has it.
  bool claim(Task& t);
  // Blocks until a submitted task has run, meanwhile running queued tasks
  // on the calling thread; returns at once for a claimed one.
  void wait(Task& t);
  // Whether a submitted task has finished running.
  bool done(Task& t);

  ~ExecPool();

 private:
  ExecPool() = default;

  // The calling thread's own scratch, rebound to `tm`, when it is a worker
  // running a task; null otherwise.
  static WorkerScratch* task_scratch(const TimingModel& tm);
  void ensure_workers(int workers);
  // Runs t on `ws`, then marks it done.
  void run_task(Task& t, WorkerScratch& ws);

  using ChunkFn = void (*)(void* env, WorkerScratch& ws, std::uint64_t begin,
                           std::uint64_t end);

  WorkerScratch& scratch(int worker) { return *scratch_[static_cast<std::size_t>(worker)]; }
  void prepare(int workers, const TimingModel& tm);
  void dispatch(std::uint64_t count, void* env, ChunkFn fn);
  // `seen`: the job sequence number current when the worker started.
  void worker_loop(int worker, std::uint64_t seen);
  void stop_workers();

  struct State;
  std::unique_ptr<State> state_;
  std::vector<std::unique_ptr<WorkerScratch>> scratch_;
  int prepared_workers_ = 0;
  // Tasks submitted and neither waited for nor claimed.
  std::atomic<int> tasks_open_{0};
};

}  // namespace simt
