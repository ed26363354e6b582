#include "simt/exec_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>

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

// Set on a worker thread while it runs a task: launches inside the task run
// inline on this scratch.
thread_local WorkerScratch* t_task_scratch = nullptr;

struct ExecPool::State {
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::condition_variable cv_task;  // a task finished
  std::vector<std::thread> workers;
  std::deque<Task*> tasks;          // submitted, not yet started
  int task_workers = 0;             // workers 0 .. task_workers-1 take tasks

  int explicit_threads = 0;  // 0 = auto (env / hardware)
  bool stop = false;

  // Current job; workers detect a new one by the sequence number.
  std::uint64_t seq = 0;
  std::atomic<std::uint64_t> cursor{0};
  std::uint64_t count = 0;
  void* env = nullptr;
  ChunkFn fn = nullptr;
  int running = 0;
};

ExecPool& ExecPool::instance() {
  static ExecPool pool;
  return pool;
}

void ExecPool::set_threads(int n) {
  ExecPool& p = instance();
  if (!p.state_) p.state_ = std::make_unique<State>();
  std::lock_guard<std::mutex> lk(p.state_->m);
  p.state_->explicit_threads = n >= 1 ? n : 0;
}

int ExecPool::threads() {
  ExecPool& p = instance();
  if (!p.state_) p.state_ = std::make_unique<State>();
  int explicit_threads;
  {
    std::lock_guard<std::mutex> lk(p.state_->m);
    explicit_threads = p.state_->explicit_threads;
  }
  return explicit_threads >= 1 ? explicit_threads : resolve_auto_threads();
}

void ExecPool::prepare(int workers, const TimingModel& tm) {
  while (scratch_.size() < static_cast<std::size_t>(workers)) {
    scratch_.push_back(std::make_unique<WorkerScratch>());
  }
  for (int w = 0; w < workers; ++w) {
    scratch(w).trace.rebind(tm);
    scratch(w).tally.reset();
  }
  prepared_workers_ = workers;
}

WorkerScratch* ExecPool::task_scratch(const TimingModel& tm) {
  WorkerScratch* ws = t_task_scratch;
  if (ws != nullptr) {
    ws->trace.rebind(tm);
    ws->tally.reset();
  }
  return ws;
}

AtomicTally& ExecPool::merged_tally() {
  if (t_task_scratch != nullptr) return t_task_scratch->tally;
  AtomicTally& dst = scratch(0).tally;
  for (int w = 1; w < prepared_workers_; ++w) {
    scratch(w).tally.merge_into(dst);
  }
  return dst;
}

void ExecPool::worker_loop(int worker, std::uint64_t seen) {
  State& st = *state_;
  WorkerScratch& ws = scratch(worker + 1);
  for (;;) {
    void* env = nullptr;
    ChunkFn fn = nullptr;
    std::uint64_t count = 0;
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(st.m);
      st.cv_work.wait(lk, [&] {
        return st.stop || st.seq != seen ||
               (worker < st.task_workers && !st.tasks.empty());
      });
      if (st.stop) return;
      if (st.seq != seen) {
        seen = st.seq;
        env = st.env;
        fn = st.fn;
        count = st.count;
      } else {
        task = st.tasks.front();
        st.tasks.pop_front();
        task->state_ = Task::State::running;
      }
    }
    if (task != nullptr) {
      run_task(*task, ws);
      continue;
    }
    for (;;) {
      const std::uint64_t begin =
          st.cursor.fetch_add(kChunkBlocks, std::memory_order_relaxed);
      if (begin >= count) break;
      fn(env, ws, begin, std::min<std::uint64_t>(begin + kChunkBlocks, count));
    }
    {
      std::lock_guard<std::mutex> lk(st.m);
      if (--st.running == 0) st.cv_done.notify_one();
    }
  }
}

void ExecPool::ensure_workers(int workers) {
  State& st = *state_;
  if (static_cast<int>(st.workers.size()) == workers) return;
  while (scratch_.size() < static_cast<std::size_t>(workers) + 1) {
    scratch_.push_back(std::make_unique<WorkerScratch>());
  }
  stop_workers();
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lk(st.m);
    seq = st.seq;
  }
  st.workers.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    st.workers.emplace_back([this, w, seq] { worker_loop(w, seq); });
  }
}

void ExecPool::dispatch(std::uint64_t count, void* env, ChunkFn fn) {
  State& st = *state_;
  ensure_workers(prepared_workers_ - 1);
  {
    std::lock_guard<std::mutex> lk(st.m);
    st.cursor.store(0, std::memory_order_relaxed);
    st.count = count;
    st.env = env;
    st.fn = fn;
    st.running = static_cast<int>(st.workers.size());
    ++st.seq;
    st.cv_work.notify_all();
  }
  // The calling thread is worker 0.
  WorkerScratch& ws = scratch(0);
  for (;;) {
    const std::uint64_t begin =
        st.cursor.fetch_add(kChunkBlocks, std::memory_order_relaxed);
    if (begin >= count) break;
    fn(env, ws, begin, std::min<std::uint64_t>(begin + kChunkBlocks, count));
  }
  std::unique_lock<std::mutex> lk(st.m);
  st.cv_done.wait(lk, [&] { return st.running == 0; });
}

void ExecPool::run_task(Task& t, WorkerScratch& ws) {
  State& st = *state_;
  t_task_scratch = &ws;
  t.run();
  t_task_scratch = nullptr;
  {
    std::lock_guard<std::mutex> lk(st.m);
    t.state_ = Task::State::done;
  }
  tasks_open_.fetch_sub(1, std::memory_order_relaxed);
  st.cv_task.notify_all();
}

void ExecPool::submit(Task& t) {
  const int n = threads();
  AGG_CHECK_MSG(n >= 2, "tasks need a worker thread");
  State& st = *state_;
  AGG_CHECK(t.state_ == Task::State::idle);
  if (tasks_open_.load(std::memory_order_relaxed) == 0) ensure_workers(n - 1);
  tasks_open_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(st.m);
  // Every thread that runs tasks keeps its own launch scratch and malloc
  // heap, so tasks get half the threads: the caller, which helps in wait()
  // on its own scratch, and n / 2 - 1 workers (at least one).
  st.task_workers = std::max(1, n / 2 - 1);
  t.state_ = Task::State::queued;
  st.tasks.push_back(&t);
  st.cv_work.notify_all();
}

bool ExecPool::claim(Task& t) {
  State& st = *state_;
  std::lock_guard<std::mutex> lk(st.m);
  if (t.state_ != Task::State::queued) return false;
  st.tasks.erase(std::find(st.tasks.begin(), st.tasks.end(), &t));
  t.state_ = Task::State::idle;
  tasks_open_.fetch_sub(1, std::memory_order_relaxed);
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
    run_task(*other, scratch(0));
  }
}

bool ExecPool::done(Task& t) {
  State& st = *state_;
  std::lock_guard<std::mutex> lk(st.m);
  return t.state_ == Task::State::done;
}

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
  if (state_) stop_workers();
}

}  // namespace simt
