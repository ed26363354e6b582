// Device facade: allocation, host<->device transfers, device-side fills, the
// simulated clock, and cumulative accounting. Tracing scratch for kernel
// launches belongs to the launching host thread (launch.h), not to the
// Device, so threads that each drive their own Device share no mutable
// state.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "simt/device_props.h"
#include "simt/fault.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/stream.h"
#include "simt/timing_model.h"
#include "simt/warp_trace.h"
#include "trace/trace_sink.h"

namespace simt {

struct DeviceStats {
  std::uint64_t kernels_launched = 0;
  std::uint64_t transfers = 0;
  double kernel_time_us = 0;
  double transfer_time_us = 0;
  double host_time_us = 0;
  double issue_cycles = 0;
  double transactions = 0;
  double atomics = 0;
  double lane_work = 0;
  double lockstep_work = 0;
  std::uint64_t warps_executed = 0;
  std::uint64_t warps_uniform = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;

  double simd_efficiency() const {
    return lockstep_work > 0 ? lane_work / lockstep_work : 1.0;
  }
};

// A point on the issuing stream's clock, taken where an engine needs the
// modeled time (Device::mark). On an accounting device `us` is the clock
// itself. On a recording device the clock is only known once the recording
// is committed: `us` is NaN and `index` names the mark in the op log, whose
// replay measures it (DESIGN.md "Query-parallel drains").
struct ClockMark {
  static constexpr std::uint32_t kInline = ~std::uint32_t{0};
  double us = 0;
  std::uint32_t index = kInline;
};

// A clock mark with the device's cumulative stats, where a traversal begins
// and ends. `stats` is the snapshot on an accounting device.
struct StatsMark {
  ClockMark clock;
  DeviceStats stats;
};

// What committing a recording measured at its marks, by ClockMark::index:
// the clock at every mark and the stats at every stats mark.
struct MarkValues {
  std::vector<double> clock;
  std::vector<DeviceStats> stats;

  double at(const ClockMark& m) const {
    return m.index == ClockMark::kInline ? m.us : clock[m.index];
  }
};

// The accounting a recording device deferred, in issue order: allocation
// and free sizes, kernels exactly as account_kernel received them (a
// persistent run as the one kernel end_persistent commits), transfers, host
// phases and clock marks. Device::replay commits it.
struct OpLog {
  enum class Kind : std::uint8_t {
    alloc,       // bytes
    free,        // bytes
    kernel,      // kernels[index]
    run_begin,   // a persistent run opens
    run_end,     // kernels[index] ends it; its shift is mark `mark`
    h2d,         // bytes
    d2h,         // bytes
    host,        // us
    mark,        // clock (and stats) at mark `mark`
    run_mark,    // run start + us (the run's elapsed time) at mark `mark`
  };
  struct Op {
    Kind kind;
    std::uint32_t index = 0;
    std::uint32_t mark = 0;
    std::uint64_t bytes = 0;
    double us = 0;
  };
  std::vector<Op> ops;
  std::vector<KernelStats> kernels;
  std::uint32_t marks = 0;
};

// Thrown by a recording device where the unit would pin a structure into a
// shared resident copy (a CSC, a nested layout, a closure, an upload): a
// recording never mutates one, so the unit runs inline instead.
class PinRefused : public std::runtime_error {
 public:
  explicit PinRefused(const char* what) : std::runtime_error(what) {}
};

class Device {
 public:
  explicit Device(const DeviceProps& props = DeviceProps::fermi_c2070(),
                  TimingModel tm = TimingModel::fermi_default())
      : props_(props), tm_(tm), space_(props.global_mem_bytes) {
    check_timing(tm_);
  }

  const DeviceProps& props() const { return props_; }
  const TimingModel& timing() const { return tm_; }

  // ---- fleet identity ----
  // Stamped by simt::Fleet at construction: the device's ordinal within its
  // cluster and a human label ("dev2" unless the ClusterSpec named it). Every
  // trace event carries the ordinal (per-device Chrome lanes); fault messages
  // carry the label so fleet errors are attributable. A standalone Device is
  // ordinal 0 / "dev0".
  void set_identity(std::uint32_t ordinal, std::string label) {
    ordinal_ = ordinal;
    label_ = std::move(label);
  }
  std::uint32_t ordinal() const { return ordinal_; }
  const std::string& label() const { return label_; }

  // ---- fault injection & health ----
  // Installs a fault plan (simt/fault.h); subsequent allocations, transfers
  // and kernel launches consult it and throw DeviceFault when scheduled to
  // fail. An empty plan disarms injection.
  void set_fault_plan(FaultPlan plan) {
    injector_.install(std::move(plan));
    fault_armed_ = injector_.armed();
  }
  const FaultPlan& fault_plan() const { return injector_.plan(); }
  bool fault_armed() const { return fault_armed_; }
  // False once a plan's dead.after threshold has been crossed: the device is
  // permanently lost and every further op fails.
  bool healthy() const { return !injector_.device_dead(); }

  // Memory high-water handling for fault recovery: a DeviceFault thrown
  // mid-engine unwinds past buffers that were never free()d, leaking their
  // accounting. Callers snapshot mem_mark() before a faultable region and
  // reclaim back to it after catching.
  std::uint64_t mem_mark() const { return space_.bytes_in_use(); }
  void mem_reclaim(std::uint64_t mark) { space_.reclaim_to(mark); }
  // The simulated address the next allocation receives. Addresses are never
  // reused, so a buffer whose base_addr() is at or above a frontier taken
  // earlier was allocated after it: the way a fault handler tells the
  // structures an attempt pinned from those it found already resident.
  std::uint64_t mem_frontier() const { return space_.next_address(); }

  // ---- allocation ----
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t n, std::string name) {
    if (fault_armed_) check_fault(FaultKind::alloc, name.c_str());
    if (!space_.can_allocate(n * sizeof(T))) throw_oom(name.c_str());
    const std::uint64_t base = space_.allocate(n * sizeof(T));
    if (recording_) log_op({OpLog::Kind::alloc, 0, 0, n * sizeof(T), 0});
    return DeviceBufferFactory<T>::make(base, n, std::move(name));
  }

  template <typename T>
  void free(DeviceBuffer<T>& buf) {
    if (buf.valid()) {
      space_.release(buf.size_bytes());
      if (recording_) log_op({OpLog::Kind::free, 0, 0, buf.size_bytes(), 0});
    }
    buf = DeviceBuffer<T>();
  }

  std::uint64_t mem_in_use() const { return space_.bytes_in_use(); }

  // ---- transfers (advance the simulated clock with the PCIe model) ----
  template <typename T>
  void memcpy_h2d(DeviceBuffer<T>& dst, std::span<const T> src) {
    if (fault_armed_) check_fault(FaultKind::transfer, "memcpy.h2d");
    AGG_CHECK(src.size() <= dst.size());
    std::copy(src.begin(), src.end(), dst.host_view().begin());
    account_transfer(src.size_bytes(), /*to_device=*/true);
  }

  // Partial upload into [offset, offset + src.size()): the dirty-region
  // transfer of the incremental graph patch path. Charged for src bytes
  // only (one PCIe op), not the whole buffer.
  template <typename T>
  void memcpy_h2d(DeviceBuffer<T>& dst, std::span<const T> src,
                  std::size_t offset) {
    if (fault_armed_) check_fault(FaultKind::transfer, "memcpy.h2d");
    AGG_CHECK(offset + src.size() <= dst.size());
    std::copy(src.begin(), src.end(),
              dst.host_view().begin() + static_cast<std::ptrdiff_t>(offset));
    account_transfer(src.size_bytes(), /*to_device=*/true);
  }

  template <typename T>
  void memcpy_d2h(std::span<T> dst, const DeviceBuffer<T>& src) {
    if (fault_armed_) check_fault(FaultKind::transfer, "memcpy.d2h");
    AGG_CHECK(dst.size() <= src.size());
    const auto view = src.host_view();
    std::copy(view.begin(), view.begin() + static_cast<std::ptrdiff_t>(dst.size()),
              dst.begin());
    account_transfer(dst.size_bytes(), /*to_device=*/false);
  }

  // Single-value download, the per-iteration termination check of the engine.
  template <typename T>
  T read_scalar(const DeviceBuffer<T>& src, std::size_t i = 0) {
    if (fault_armed_) check_fault(FaultKind::transfer, "read_scalar");
    AGG_CHECK(i < src.size());
    account_transfer(sizeof(T), /*to_device=*/false);
    return src.host_view()[i];
  }

  // Single-value upload (e.g. source-node initialization, counter reset).
  template <typename T>
  void write_scalar(DeviceBuffer<T>& dst, std::size_t i, T value) {
    if (fault_armed_) check_fault(FaultKind::transfer, "write_scalar");
    AGG_CHECK(i < dst.size());
    dst.host_view()[i] = value;
    account_transfer(sizeof(T), /*to_device=*/true);
  }

  // A value a traversal starts from (a source's level, a batch's mask bit).
  // Inside an init kernel the kernel stores it, in place of the fill value
  // at that slot, from its arguments: nothing is charged beyond the init's
  // fills. Outside one it is a write_scalar.
  template <typename T>
  void seed_scalar(DeviceBuffer<T>& dst, std::size_t i, T value) {
    if (!init_.open) return write_scalar(dst, i, value);
    AGG_CHECK(i < dst.size());
    dst.host_view()[i] = value;
  }

  // ---- device-side fill (charged as an analytic uniform kernel) ----
  template <typename T>
  void fill(DeviceBuffer<T>& buf, T value) {
    std::fill(buf.host_view().begin(), buf.host_view().end(), value);
    UniformThreadCost cost;
    cost.ops = 1;
    cost.mem_instrs = 1;
    cost.transactions_per_warp = kWarpSize * sizeof(T) / tm_.segment_bytes;
    account_kernel(estimate_uniform_kernel(props_, tm_, "fill", buf.size(), 256, cost));
  }

  // ---- streams (see stream.h for the interleaving model) ----
  // Creates an in-order operation queue whose ops interleave with other
  // streams' on the modeled clock. The returned id stays valid for the
  // device's lifetime. Stream 0 (always present) is the legacy serialized
  // default stream.
  StreamId create_stream(std::string name = "");
  std::uint32_t num_streams() const {
    return 1 + static_cast<std::uint32_t>(streams_.size());
  }
  const std::string& stream_name(StreamId s) const;

  // Completion time of the stream's last op (modeled us).
  double stream_ready_us(StreamId s) const {
    AGG_CHECK(s < num_streams());
    return s == 0 ? clock_us_ : streams_[s - 1].ready_us;
  }
  // End of all issued work across streams and engines: the makespan of a
  // multi-stream schedule.
  double makespan_us() const;

  // Ops issued while a stream is current are accounted on that stream's
  // timeline; use StreamGuard for scoped selection.
  void set_current_stream(StreamId s) {
    AGG_CHECK(s < num_streams());
    current_ = s;
  }
  StreamId current_stream() const { return current_; }

  // ---- persistent runs (DESIGN.md "Persistent iterations") ----
  // Between begin_persistent() and end_persistent(), every kernel the device
  // accounts is one phase of a single persistent kernel. A phase executes
  // and is costed exactly as the kernel would be on its own, minus the
  // launch overhead; consecutive phases are separated by one software grid
  // barrier (grid_barrier_us) over the blocks the device holds resident at
  // `tpb` — Fermi has no cooperative launch, so that caps the grid. The run
  // is accounted when it ends, as one kernel: one op on its stream's compute
  // engine, one fault-injector op, one observer call, one trace event.
  // Transfers and host phases cannot happen inside a run. While it is open,
  // now_us() is the run's provisional clock: the stream's time at
  // begin_persistent() plus the launch overhead, phases and barriers so far.
  void begin_persistent(const char* name, std::uint32_t tpb);
  // Accounts the open run and returns how much later than its provisional
  // start it was placed (0 on the default stream, where nothing else can
  // have claimed the compute engine). The device is outside the run before
  // the kernel fault check, so a DeviceFault thrown here leaves no run open.
  double end_persistent() { return end_persistent_mark().us; }
  // end_persistent with the shift as a clock mark, which a recording device
  // only learns when the recording is committed.
  ClockMark end_persistent_mark();
  // Drops an open run without accounting it (exception unwinding).
  void abandon_persistent() { run_ = PersistentRun{}; }
  bool in_persistent() const { return run_.open; }

  // ---- init kernels (DESIGN.md "Persistent iterations") ----
  // Between begin_init() and end_init(), every kernel the device accounts —
  // the fills that initialise a traversal's buffers — folds into one kernel
  // whose seeds (seed_scalar) travel as its `arg_bytes` of arguments, inside
  // the kernel parameter space. Its work is the sum of the folded kernels'
  // work, and its time max(SM, bandwidth, atomic) of those sums plus one
  // launch overhead. It is accounted when it ends, as one kernel: one op on
  // the compute engine, one fault-injector op, one observer call, one trace
  // event. Transfers, host phases and persistent runs cannot happen while an
  // init is open.
  void begin_init(const char* name, std::uint64_t arg_bytes);
  void end_init();
  // Drops an open init without accounting it (exception unwinding).
  void abandon_init() { init_ = InitKernel{}; }
  bool in_init() const { return init_.open; }

  // ---- clock & accounting ----
  // The current stream's notion of time: completion of its last op. For the
  // default stream this is the legacy device clock.
  double now_us() const {
    if (run_.open) return run_.start_us + run_.elapsed_us;
    return current_ == 0 ? clock_us_ : streams_[current_ - 1].ready_us;
  }
  // now_us() where an engine reads the clock; see ClockMark.
  ClockMark mark() {
    if (!recording_) return {now_us()};
    return {std::numeric_limits<double>::quiet_NaN(),
            log_mark(run_.open ? OpLog::Kind::run_mark : OpLog::Kind::mark,
                     run_.elapsed_us)};
  }
  // mark() with stats(); never inside a persistent run.
  StatsMark stats_mark() {
    AGG_CHECK_MSG(!run_.open, "stats mark inside a persistent run");
    StatsMark m;
    m.clock = mark();
    if (!recording_) m.stats = stats_;
    return m;
  }
  void reset_clock() {
    clock_us_ = 0;
    current_ = 0;
    streams_.clear();
    compute_engine_.clear();
    copy_engine_.clear();
  }
  void reset_stats() { stats_ = DeviceStats{}; }
  const DeviceStats& stats() const { return stats_; }

  // Optional per-launch observer (profiling / tests); called after every
  // kernel completes, with the final assembled stats.
  using KernelObserver = std::function<void(const KernelStats&)>;
  void set_kernel_observer(KernelObserver obs) { observer_ = std::move(obs); }
  const KernelObserver& kernel_observer() const { return observer_; }

  void account_kernel(const KernelStats& ks) {
    if (init_.open) {
      add_init_work(ks);
    } else if (run_.open) {
      add_phase(ks);
    } else if (recording_) {
      log_kernel(OpLog::Kind::kernel, ks);
    } else {
      commit_kernel(ks);
    }
  }

  // Host-side compute on the application timeline (hybrid CPU/GPU phases).
  // Occupies neither device engine: it only extends the issuing stream.
  void account_host_compute(double us) {
    AGG_CHECK_MSG(!run_.open, "host phase inside a persistent run");
    AGG_CHECK_MSG(!init_.open, "host phase inside an init kernel");
    if (recording_) {
      log_op({OpLog::Kind::host, 0, 0, 0, us});
      return;
    }
    double start_us;
    if (current_ == 0) {
      start_us = clock_us_;
      clock_us_ += us;
    } else {
      StreamState& st = streams_[current_ - 1];
      start_us = st.ready_us;
      st.ready_us += us;
    }
    stats_.host_time_us += us;
    if (trace::active()) trace_host(us, start_us);
  }

  void account_transfer(std::uint64_t bytes, bool to_device) {
    AGG_CHECK_MSG(!run_.open, "transfer inside a persistent run");
    AGG_CHECK_MSG(!init_.open, "transfer inside an init kernel");
    if (recording_) {
      log_op({to_device ? OpLog::Kind::h2d : OpLog::Kind::d2h, 0, 0, bytes, 0});
      return;
    }
    const double t =
        tm_.transfer_latency_us + static_cast<double>(bytes) / (props_.pcie_gbps * 1e3);
    const double start_us = begin_op(copy_engine_, t);
    ++stats_.transfers;
    stats_.transfer_time_us += t;
    (to_device ? stats_.bytes_h2d : stats_.bytes_d2h) += bytes;
    if (trace::active()) trace_transfer(bytes, to_device, t, start_us);
  }

  // ---- recording (DESIGN.md "Query-parallel drains") ----
  // A recording device simulates a unit of `real`'s work on any host
  // thread: same props, timing and identity, scratch addresses above every
  // buffer `real` holds, no fault plan and no observer. It accounts
  // nothing: every allocation, free, kernel, persistent run, transfer, host
  // phase and clock mark goes into its op log instead.
  static Device recorder(const Device& real);
  // Whether a recording reproduces this device's costs: every allocation
  // base must start a segment, so segment_bytes must divide the 256 B
  // alignment (DESIGN.md "Query-parallel drains").
  bool recordable() const {
    return AddressSpace::kAlignment %
               static_cast<std::uint64_t>(tm_.segment_bytes) == 0;
  }
  bool recording() const { return recording_; }
  OpLog take_log() { return std::exchange(log_, OpLog{}); }
  // Throws PinRefused on a recording device, before `what` is pinned.
  void check_pin(const char* what) const {
    if (recording_) throw PinRefused(what);
  }
  // Whether the allocations of `log` fit in order into what is free now.
  bool fits(const OpLog& log) const;
  // Commits a recording on the current stream, through the paths an inline
  // run takes: allocations and frees into the address space, kernels
  // through commit_kernel, transfers and host phases through their
  // accounting. Returns the clock (and stats) at each of its marks. Check
  // fits() first.
  MarkValues replay(const OpLog& log);

 private:
  struct StreamState {
    std::string name;
    double ready_us = 0;
  };

  // The open persistent run: its provisional start, its clock so far, and
  // the totals of its phases, accounted as one kernel when it ends.
  struct PersistentRun {
    bool open = false;
    StreamId stream = 0;
    double start_us = 0;
    double elapsed_us = 0;
    double barrier_us = 0;
    std::uint64_t phases = 0;
    KernelStats stats;
  };

  // The init kernel being assembled: the totals of the kernels folded in.
  struct InitKernel {
    bool open = false;
    KernelStats stats;
  };

  // Fault check, observer, timeline placement, counters and trace of one
  // kernel; returns its modeled start.
  double commit_kernel(const KernelStats& ks) {
    if (fault_armed_) check_fault(FaultKind::kernel, ks.name);
    if (observer_) observer_(ks);
    const double start_us = begin_op(compute_engine_, ks.time_us);
    ++stats_.kernels_launched;
    stats_.kernel_time_us += ks.time_us;
    stats_.issue_cycles += ks.issue_cycles;
    stats_.transactions += ks.transactions;
    stats_.atomics += ks.atomics;
    stats_.lane_work += ks.lane_work;
    stats_.lockstep_work += ks.lockstep_work;
    stats_.warps_executed += ks.warps_executed;
    stats_.warps_uniform += ks.warps_uniform;
    if (trace::active()) trace_kernel(ks, start_us);
    return start_us;
  }
  // Folds one kernel into the open run as a phase, or into the open init
  // (device.cpp).
  void add_phase(const KernelStats& ks);
  void add_init_work(const KernelStats& ks);

  void log_op(const OpLog::Op& op) { log_.ops.push_back(op); }
  void log_kernel(OpLog::Kind kind, const KernelStats& ks) {
    log_op({kind, static_cast<std::uint32_t>(log_.kernels.size()), 0, 0, 0});
    log_.kernels.push_back(ks);
  }
  std::uint32_t log_mark(OpLog::Kind kind, double us) {
    const std::uint32_t m = log_.marks++;
    log_op({kind, 0, m, 0, us});
    return m;
  }

  // Places an op of duration `dur_us` on `engine` honoring the current
  // stream's ordering; returns the modeled start time. Default stream: the
  // op starts at the device clock and advances it (legacy semantics), while
  // still occupying the engine so stream ops cannot backfill underneath.
  double begin_op(EngineTimeline& engine, double dur_us) {
    if (current_ == 0) {
      const double start = clock_us_;
      clock_us_ += dur_us;
      engine.mark(start, clock_us_);
      return start;
    }
    StreamState& st = streams_[current_ - 1];
    const double start = engine.place(st.ready_us, dur_us);
    st.ready_us = start + dur_us;
    return start;
  }

  // Cold paths of the trace::active() branches above (device.cpp): publish
  // the event to the Tracer and bump the counter registry.
  void trace_kernel(const KernelStats& ks, double start_us);
  void trace_transfer(std::uint64_t bytes, bool to_device, double dur_us,
                      double start_us);
  void trace_host(double dur_us, double start_us);

  // Aborts on timing constants the warp tracer cannot use: it turns
  // segment_bytes into an integer shift or divisor and counts line-buffer
  // hits down from stream_refetch_period.
  static void check_timing(const TimingModel& tm);

  // Fault cold paths (device.cpp). check_fault consults the injector and, on
  // a scheduled failure, publishes a FaultEvent and throws DeviceFault.
  // Decisions depend only on (plan seed, kind, per-kind op index), so replay
  // is bit-identical regardless of the simulator thread count.
  void check_fault(FaultKind kind, const char* op);
  [[noreturn]] void throw_oom(const char* name);

  DeviceProps props_;
  TimingModel tm_;
  std::uint32_t ordinal_ = 0;
  std::string label_ = "dev0";
  AddressSpace space_;
  DeviceStats stats_;
  KernelObserver observer_;
  double clock_us_ = 0;
  StreamId current_ = 0;
  std::vector<StreamState> streams_;
  EngineTimeline compute_engine_;
  EngineTimeline copy_engine_;
  FaultInjector injector_;
  bool fault_armed_ = false;
  PersistentRun run_;
  InitKernel init_;
  bool recording_ = false;
  OpLog log_;
};

// Scoped stream selection: ops accounted while the guard lives go to `s`.
class StreamGuard {
 public:
  StreamGuard(Device& dev, StreamId s) : dev_(dev), prev_(dev.current_stream()) {
    dev_.set_current_stream(s);
  }
  ~StreamGuard() { dev_.set_current_stream(prev_); }
  StreamGuard(const StreamGuard&) = delete;
  StreamGuard& operator=(const StreamGuard&) = delete;

 private:
  Device& dev_;
  StreamId prev_;
};

// Scoped init kernel (Device::begin_init): an init still open when the scope
// dies — an exception unwound through it — is dropped unaccounted.
class InitScope {
 public:
  InitScope(Device& dev, const char* name, std::uint64_t arg_bytes)
      : dev_(dev) {
    dev_.begin_init(name, arg_bytes);
  }
  ~InitScope() {
    if (open_) dev_.abandon_init();
  }
  InitScope(const InitScope&) = delete;
  InitScope& operator=(const InitScope&) = delete;

  void end() {
    open_ = false;
    dev_.end_init();
  }

 private:
  Device& dev_;
  bool open_ = true;
};

// Scoped persistent run (Device::begin_persistent): a run still open when
// the scope dies — an exception unwound through it — is dropped unaccounted,
// so no fault path leaves the device inside a run.
class PersistentScope {
 public:
  PersistentScope(Device& dev, const char* name, std::uint32_t tpb) : dev_(dev) {
    dev_.begin_persistent(name, tpb);
  }
  ~PersistentScope() {
    if (open_) dev_.abandon_persistent();
  }
  PersistentScope(const PersistentScope&) = delete;
  PersistentScope& operator=(const PersistentScope&) = delete;

  // Device::end_persistent_mark.
  ClockMark end() {
    open_ = false;
    return dev_.end_persistent_mark();
  }

 private:
  Device& dev_;
  bool open_ = true;
};

}  // namespace simt
