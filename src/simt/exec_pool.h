// Persistent host worker pool for whole units of simulation (tasks), such as
// a GraphService drain's recordings (DESIGN.md "Query-parallel drains").
//
// A task runs its launches on the thread that runs it, with that thread's
// own launch scratch (launch.h), so tasks on different threads never share
// mutable simulator state.
//
// Thread count: ExecPool::set_threads() (the --sim-threads flag), else the
// SIMT_THREADS environment variable, else std::thread::hardware_concurrency.
// It sizes the drains' lookahead and the pool; 1 runs every drain inline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

namespace simt {

// The largest simulator thread count a flag or SIMT_THREADS may ask for.
inline constexpr int kMaxThreads = 512;

// Parses a thread count: a whole decimal number in [1, kMaxThreads] and
// nothing else. The one reading of --sim-threads and SIMT_THREADS; nullopt
// for anything else ("abc", "0", "-2", "4x", "600").
std::optional<int> parse_threads(std::string_view text);

class ExecPool {
 public:
  // The process-wide pool (workers are started on the first submit and
  // persist across drains and Devices).
  static ExecPool& instance();

  // Sets the thread count. n >= 1 is explicit; n == 0 restores the default
  // resolution (SIMT_THREADS env, else hardware concurrency). Takes effect
  // on the next submit.
  static void set_threads(int n);
  // The resolved current thread count (>= 1).
  static int threads();

  // A unit of work for a pool worker, run at most once.
  class Task {
   public:
    virtual ~Task() = default;
    virtual void run() = 0;

   private:
    friend class ExecPool;
    enum class State : std::uint8_t { idle, queued, running, done };
    State state_ = State::idle;
  };
  // Queues t (needs threads() >= 2). Tasks run on threads() - 2 workers
  // (at least one) and on the thread that wait()s. Each thread that runs
  // tasks keeps its own launch scratch and malloc heap; starting the
  // workers also fixes glibc's mmap threshold at 64 KiB for the process,
  // so freed recorder blocks go back to the system (DESIGN.md "Threads and
  // memory").
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
  ExecPool();

  void ensure_workers(int workers);
  // Runs t on the calling thread, then marks it done.
  void run_task(Task& t);
  void worker_loop();
  void stop_workers();

  struct State;
  const std::unique_ptr<State> state_;
};

}  // namespace simt
