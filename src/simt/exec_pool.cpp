#include "simt/exec_pool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/check.h"

namespace simt {
namespace {

// SIMT_THREADS env var, else hardware concurrency. Only consulted when no
// explicit set_threads(n >= 1) override is in effect.
int resolve_auto_threads() {
  if (const char* env = std::getenv("SIMT_THREADS")) {
    if (const std::optional<int> v = parse_threads(env)) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

}  // namespace

std::optional<int> parse_threads(std::string_view text) {
  if (text.empty()) return std::nullopt;
  int v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
    if (v > kMaxThreads) return std::nullopt;
  }
  if (v < 1) return std::nullopt;
  return v;
}

struct ExecPool::State {
  std::mutex m;
  std::condition_variable cv_work;  // a task was queued, or stop
  std::condition_variable cv_task;  // a task finished
  std::deque<Task*> tasks;          // submitted, not yet started
  int explicit_threads = 0;         // 0 = auto (env / hardware)
  bool stop = false;

  // Held while the worker set is resized, so drains on two host threads
  // never start or join workers at the same time.
  std::mutex workers_m;
  std::vector<std::thread> workers;
};

ExecPool::ExecPool() : state_(std::make_unique<State>()) {}

ExecPool& ExecPool::instance() {
  static ExecPool pool;
  return pool;
}

void ExecPool::set_threads(int n) {
  State& st = *instance().state_;
  std::lock_guard<std::mutex> lk(st.m);
  st.explicit_threads = n >= 1 ? n : 0;
}

int ExecPool::threads() {
  State& st = *instance().state_;
  int explicit_threads;
  {
    std::lock_guard<std::mutex> lk(st.m);
    explicit_threads = st.explicit_threads;
  }
  return explicit_threads >= 1 ? explicit_threads : resolve_auto_threads();
}

void ExecPool::worker_loop() {
  State& st = *state_;
  for (;;) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(st.m);
      st.cv_work.wait(lk, [&] { return st.stop || !st.tasks.empty(); });
      if (st.stop) return;
      task = st.tasks.front();
      st.tasks.pop_front();
      task->state_ = Task::State::running;
    }
    run_task(*task);
  }
}

void ExecPool::ensure_workers(int workers) {
  State& st = *state_;
  std::lock_guard<std::mutex> lk(st.workers_m);
  if (static_cast<int>(st.workers.size()) == workers) return;
#if defined(__GLIBC__)
  // glibc raises its mmap threshold to the largest mmapped block freed so
  // far, such as a warp tracer's scratch that outgrew its block. Past that,
  // the recorders' 64-512 KiB blocks stay in per-thread arenas and add up
  // in peak RSS. The setting is process-wide, so only a process that
  // records fixes it.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
#endif
  stop_workers();
  st.workers.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    st.workers.emplace_back([this] { worker_loop(); });
  }
}

void ExecPool::run_task(Task& t) {
  State& st = *state_;
  t.run();
  {
    std::lock_guard<std::mutex> lk(st.m);
    t.state_ = Task::State::done;
  }
  st.cv_task.notify_all();
}

void ExecPool::submit(Task& t) {
  const int n = threads();
  AGG_CHECK_MSG(n >= 2, "tasks need a worker thread");
  State& st = *state_;
  AGG_CHECK(t.state_ == Task::State::idle);
  // Tasks run on n - 2 workers (at least one) and on the caller, which
  // helps in wait(). Every thread that runs tasks keeps its own launch
  // scratch and malloc heap, so n - 1 workers cost too much peak RSS
  // (DESIGN.md "Threads and memory").
  ensure_workers(std::max(1, n - 2));
  std::lock_guard<std::mutex> lk(st.m);
  t.state_ = Task::State::queued;
  st.tasks.push_back(&t);
  st.cv_work.notify_one();
}

bool ExecPool::claim(Task& t) {
  State& st = *state_;
  std::lock_guard<std::mutex> lk(st.m);
  if (t.state_ != Task::State::queued) return false;
  st.tasks.erase(std::find(st.tasks.begin(), st.tasks.end(), &t));
  t.state_ = Task::State::idle;
  return true;
}

void ExecPool::wait(Task& t) {
  State& st = *state_;
  for (;;) {
    Task* other = nullptr;
    {
      std::unique_lock<std::mutex> lk(st.m);
      const auto settled = [&] {
        return t.state_ == Task::State::done || t.state_ == Task::State::idle;
      };
      if (settled()) return;
      if (st.tasks.empty()) {
        st.cv_task.wait(lk, settled);
        return;
      }
      other = st.tasks.front();
      st.tasks.pop_front();
      other->state_ = Task::State::running;
    }
    // Rather than idle, run the oldest queued task here.
    run_task(*other);
  }
}

bool ExecPool::done(Task& t) {
  State& st = *state_;
  std::lock_guard<std::mutex> lk(st.m);
  return t.state_ == Task::State::done;
}

// Needs workers_m.
void ExecPool::stop_workers() {
  State& st = *state_;
  if (st.workers.empty()) return;
  {
    std::lock_guard<std::mutex> lk(st.m);
    st.stop = true;
    st.cv_work.notify_all();
  }
  for (std::thread& t : st.workers) t.join();
  st.workers.clear();
  std::lock_guard<std::mutex> lk(st.m);
  st.stop = false;
}

ExecPool::~ExecPool() {
  std::lock_guard<std::mutex> lk(state_->workers_m);
  stop_workers();
}

}  // namespace simt
