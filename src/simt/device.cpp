#include "simt/device.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "trace/counters.h"

namespace simt {

static_assert(kWarpSize == 32);

void Device::check_timing(const TimingModel& tm) {
  AGG_CHECK_MSG(tm.segment_bytes >= 1 && tm.segment_bytes <= 0x1p32 &&
                    tm.segment_bytes == std::floor(tm.segment_bytes),
                "TimingModel::segment_bytes must be a whole number of bytes "
                "in [1, 2^32]");
  AGG_CHECK_MSG(tm.stream_refetch_period >= 1,
                "TimingModel::stream_refetch_period must be at least 1");
}

StreamId Device::create_stream(std::string name) {
  const StreamId id = num_streams();
  StreamState st;
  st.name = name.empty() ? "stream " + std::to_string(id) : std::move(name);
  streams_.push_back(std::move(st));
  return id;
}

const std::string& Device::stream_name(StreamId s) const {
  AGG_CHECK(s >= 1 && s < num_streams());
  return streams_[s - 1].name;
}

namespace {

// Adds the work of `ks` to `into`, the totals of a persistent run or an init.
void add_work(KernelStats& into, const KernelStats& ks) {
  into.warps_executed += ks.warps_executed;
  into.warps_uniform += ks.warps_uniform;
  into.issue_cycles += ks.issue_cycles;
  into.mem_instrs += ks.mem_instrs;
  into.transactions += ks.transactions;
  into.atomics += ks.atomics;
  into.max_atomic_same_addr =
      std::max(into.max_atomic_same_addr, ks.max_atomic_same_addr);
  into.lane_work += ks.lane_work;
  into.lockstep_work += ks.lockstep_work;
  into.sm_time_us += ks.sm_time_us;
  into.bw_time_us += ks.bw_time_us;
  into.atomic_time_us += ks.atomic_time_us;
}

}  // namespace

void Device::begin_persistent(const char* name, std::uint32_t tpb) {
  AGG_CHECK_MSG(!run_.open, "persistent runs do not nest");
  AGG_CHECK_MSG(!init_.open, "persistent run inside an init kernel");
  const std::uint64_t blocks =
      static_cast<std::uint64_t>(props_.resident_blocks(tpb)) *
      static_cast<std::uint64_t>(props_.num_sms);
  PersistentRun r;
  r.stream = current_;
  r.start_us = now_us();
  r.elapsed_us = tm_.launch_overhead_us;  // the run's one launch
  r.barrier_us = grid_barrier_us(props_, tm_, blocks);
  r.stats.name = name;
  r.stats.blocks = blocks;
  r.stats.total_threads = blocks * tpb;
  r.open = true;
  run_ = r;
  if (recording_) log_op({OpLog::Kind::run_begin, 0, 0, 0, 0});
}

void Device::add_phase(const KernelStats& ks) {
  PersistentRun& r = run_;
  if (r.phases++ > 0) r.elapsed_us += r.barrier_us;
  // The kernel's own time without its launch overhead (assemble_kernel_time).
  r.elapsed_us += std::max({ks.sm_time_us, ks.bw_time_us, ks.atomic_time_us});
  add_work(r.stats, ks);
  // Decisions taken inside the run are stamped with its provisional clock.
  if (trace::active()) trace::Tracer::instance().set_time_us(now_us());
}

ClockMark Device::end_persistent_mark() {
  AGG_CHECK_MSG(run_.open, "no persistent run is open");
  AGG_CHECK_MSG(current_ == run_.stream,
                "a persistent run ends on the stream it began on");
  KernelStats ks = run_.stats;
  ks.time_us = run_.elapsed_us;
  const double provisional_start = run_.start_us;
  run_ = PersistentRun{};
  if (recording_) {
    log_kernel(OpLog::Kind::run_end, ks);
    const std::uint32_t m = log_.marks++;
    log_.ops.back().mark = m;
    return {std::numeric_limits<double>::quiet_NaN(), m};
  }
  return {commit_kernel(ks) - provisional_start};
}

void Device::begin_init(const char* name, std::uint64_t arg_bytes) {
  AGG_CHECK_MSG(!init_.open && !run_.open,
                "an init kernel opens outside any init or persistent run");
  AGG_CHECK_MSG(arg_bytes <= kKernelParamBytes,
                "init kernel arguments exceed the parameter space");
  init_.open = true;
  init_.stats.name = name;
}

void Device::add_init_work(const KernelStats& ks) {
  KernelStats& s = init_.stats;
  s.blocks += ks.blocks;
  s.total_threads += ks.total_threads;
  add_work(s, ks);
}

void Device::end_init() {
  AGG_CHECK_MSG(init_.open, "no init kernel is open");
  KernelStats ks = init_.stats;
  init_ = InitKernel{};
  ks.time_us = std::max({ks.sm_time_us, ks.bw_time_us, ks.atomic_time_us}) +
               tm_.launch_overhead_us;
  account_kernel(ks);
}

Device Device::recorder(const Device& real) {
  Device rec(real.props_, real.tm_);
  rec.set_identity(real.ordinal_, real.label_);
  rec.space_ = AddressSpace(real.space_.capacity(), real.mem_frontier());
  rec.recording_ = true;
  return rec;
}

bool Device::fits(const OpLog& log) const {
  AddressSpace space = space_;
  for (const OpLog::Op& op : log.ops) {
    if (op.kind == OpLog::Kind::alloc) {
      if (!space.can_allocate(op.bytes)) return false;
      space.allocate(op.bytes);
    } else if (op.kind == OpLog::Kind::free) {
      space.release(op.bytes);
    }
  }
  return true;
}

MarkValues Device::replay(const OpLog& log) {
  AGG_CHECK_MSG(!recording_ && !run_.open, "replay onto an accounting device");
  MarkValues v;
  v.clock.resize(log.marks);
  v.stats.resize(log.marks);
  // The provisional start of the open run: now_us() at begin_persistent.
  double run_start = 0;
  for (const OpLog::Op& op : log.ops) {
    switch (op.kind) {
      case OpLog::Kind::alloc:
        if (fault_armed_) check_fault(FaultKind::alloc, "replay");
        space_.allocate(op.bytes);
        break;
      case OpLog::Kind::free:
        space_.release(op.bytes);
        break;
      case OpLog::Kind::kernel:
        commit_kernel(log.kernels[op.index]);
        break;
      case OpLog::Kind::run_begin:
        run_start = now_us();
        break;
      case OpLog::Kind::run_end:
        v.clock[op.mark] = commit_kernel(log.kernels[op.index]) - run_start;
        break;
      case OpLog::Kind::h2d:
      case OpLog::Kind::d2h:
        if (fault_armed_) check_fault(FaultKind::transfer, "replay");
        account_transfer(op.bytes, op.kind == OpLog::Kind::h2d);
        break;
      case OpLog::Kind::host:
        account_host_compute(op.us);
        break;
      case OpLog::Kind::mark:
        v.clock[op.mark] = now_us();
        v.stats[op.mark] = stats_;
        break;
      case OpLog::Kind::run_mark:
        v.clock[op.mark] = run_start + op.us;
        break;
    }
  }
  return v;
}

double Device::makespan_us() const {
  double t = clock_us_;
  for (const StreamState& st : streams_) t = std::max(t, st.ready_us);
  t = std::max(t, compute_engine_.busy_until());
  t = std::max(t, copy_engine_.busy_until());
  return t;
}

// Cold continuations of the trace::active() branches in device.h: publish the
// event to the Tracer and bump the counter registry. Kept out of line so the
// hot accounting paths stay small.

void Device::trace_kernel(const KernelStats& ks, double start_us) {
  auto& tracer = trace::Tracer::instance();
  tracer.set_time_us(now_us());
  if (tracer.has_sinks()) {
    trace::KernelEvent ev;
    ev.name = ks.name;
    ev.start_us = start_us;
    ev.dur_us = ks.time_us;
    ev.blocks = ks.blocks;
    ev.total_threads = ks.total_threads;
    ev.warps_executed = ks.warps_executed;
    ev.transactions = ks.transactions;
    ev.atomics = ks.atomics;
    ev.simd_efficiency = ks.simd_efficiency();
    ev.stream = current_;
    ev.device = ordinal_;
    tracer.kernel(ev);
  }
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) {
    reg.counter("simt.kernels").add();
    reg.counter("simt.kernel_time_us").add(ks.time_us);
    reg.counter("simt.transactions").add(ks.transactions);
    reg.counter("simt.atomics").add(ks.atomics);
    reg.counter("simt.warps_executed")
        .add(static_cast<double>(ks.warps_executed));
    reg.gauge("simt.clock_us").set_max(now_us());
  }
}

void Device::trace_transfer(std::uint64_t bytes, bool to_device, double dur_us,
                            double start_us) {
  auto& tracer = trace::Tracer::instance();
  tracer.set_time_us(now_us());
  if (tracer.has_sinks()) {
    trace::TransferEvent ev;
    ev.start_us = start_us;
    ev.dur_us = dur_us;
    ev.bytes = bytes;
    ev.to_device = to_device;
    ev.stream = current_;
    ev.device = ordinal_;
    tracer.transfer(ev);
  }
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) {
    reg.counter("simt.transfers").add();
    reg.counter("simt.transfer_time_us").add(dur_us);
    reg.counter(to_device ? "simt.bytes_h2d" : "simt.bytes_d2h")
        .add(static_cast<double>(bytes));
    reg.gauge("simt.clock_us").set_max(now_us());
  }
}

void Device::check_fault(FaultKind kind, const char* op) {
  const FaultInjector::Decision d = injector_.next(kind);
  if (!d.fail) return;
  if (trace::active()) {
    auto& tracer = trace::Tracer::instance();
    if (tracer.has_sinks()) {
      trace::FaultEvent ev;
      ev.kind = fault_kind_name(kind);
      ev.op = op;
      ev.op_index = d.op_index;
      ev.permanent = d.permanent;
      ev.stream = current_;
      ev.device = ordinal_;
      ev.ts_us = now_us();
      tracer.fault(ev);
    }
    auto& reg = trace::CounterRegistry::instance();
    if (reg.enabled()) {
      reg.counter("simt.fault.injected").add();
      reg.counter(std::string("simt.fault.") + fault_kind_name(kind)).add();
      if (d.permanent) reg.counter("simt.fault.permanent").add();
    }
  }
  throw DeviceFault(kind, op, d.op_index, d.permanent, label_);
}

void Device::throw_oom(const char* name) {
  // Genuine capacity exhaustion (not plan-scheduled): surfaced with the same
  // typed taxonomy so callers handle both identically.
  if (trace::active()) {
    auto& reg = trace::CounterRegistry::instance();
    if (reg.enabled()) reg.counter("simt.oom").add();
  }
  throw DeviceFault(FaultKind::alloc, name, /*op_index=*/0,
                    /*permanent=*/false, label_);
}

void Device::trace_host(double dur_us, double start_us) {
  auto& tracer = trace::Tracer::instance();
  tracer.set_time_us(now_us());
  if (tracer.has_sinks()) {
    trace::HostEvent ev;
    ev.name = "host.compute";
    ev.start_us = start_us;
    ev.dur_us = dur_us;
    ev.stream = current_;
    ev.device = ordinal_;
    tracer.host(ev);
  }
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) {
    reg.counter("simt.host_time_us").add(dur_us);
    reg.gauge("simt.clock_us").set_max(now_us());
  }
}

}  // namespace simt
