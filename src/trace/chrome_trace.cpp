#include "trace/chrome_trace.h"

#include <fstream>

#include "trace/json_writer.h"

namespace trace {
namespace {

// One complete trace_event object rendered into `out_events` (comma-joined).
class EventBuilder {
 public:
  EventBuilder(std::string& out_events, std::string_view name, const char* ph,
               int pid, int tid, double ts_us)
      : out_(out_events) {
    w_.begin_object();
    w_.field("name", name);
    w_.field("ph", ph);
    w_.field("pid", pid);
    w_.field("tid", tid);
    w_.field("ts", ts_us);
  }

  JsonWriter& writer() { return w_; }

  ~EventBuilder() {
    w_.end_object();
    if (!out_.empty()) out_ += ",\n";
    out_ += w_.str();
  }

 private:
  std::string& out_;
  JsonWriter w_;
};

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::string path, int kernel_lanes)
    : path_(std::move(path)), kernel_lanes_(kernel_lanes < 1 ? 1 : kernel_lanes) {}

void ChromeTraceSink::note_lane(std::uint32_t device, std::uint32_t stream) {
  if (device >= max_stream_by_dev_.size()) max_stream_by_dev_.resize(device + 1, 0);
  if (stream > max_stream_by_dev_[device]) max_stream_by_dev_[device] = stream;
}

void ChromeTraceSink::kernel(const KernelEvent& ev) {
  // Default-stream launches keep the round-robin "SM-ish" lanes; stream
  // launches render on their stream's own lane.
  const int tid =
      ev.stream == 0
          ? 1 + static_cast<int>(ev.seq % static_cast<std::uint64_t>(kernel_lanes_))
          : stream_tid(ev.stream);
  note_lane(ev.device, ev.stream);
  EventBuilder e(events_, ev.name, "X", static_cast<int>(ev.device), tid,
                 ev.start_us);
  auto& w = e.writer();
  w.field("dur", ev.dur_us);
  w.key("args").begin_object();
  w.field("blocks", ev.blocks);
  w.field("total_threads", ev.total_threads);
  w.field("warps_executed", ev.warps_executed);
  w.field("transactions", ev.transactions);
  w.field("atomics", ev.atomics);
  w.field("simd_efficiency", ev.simd_efficiency);
  if (ev.stream != 0) w.field("stream", ev.stream);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::transfer(const TransferEvent& ev) {
  const int tid = ev.stream == 0 ? transfer_tid() : stream_tid(ev.stream);
  note_lane(ev.device, ev.stream);
  EventBuilder e(events_, ev.to_device ? "memcpy.h2d" : "memcpy.d2h", "X",
                 static_cast<int>(ev.device), tid, ev.start_us);
  auto& w = e.writer();
  w.field("dur", ev.dur_us);
  w.key("args").begin_object();
  w.field("bytes", ev.bytes);
  if (ev.stream != 0) w.field("stream", ev.stream);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::host(const HostEvent& ev) {
  const int tid = ev.stream == 0 ? 0 : stream_tid(ev.stream);
  note_lane(ev.device, ev.stream);
  EventBuilder e(events_, ev.name, "X", static_cast<int>(ev.device), tid,
                 ev.start_us);
  auto& w = e.writer();
  w.field("dur", ev.dur_us);
  w.key("args").begin_object();
  if (ev.stream != 0) w.field("stream", ev.stream);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::iteration(const IterationEvent& ev) {
  const std::string name = std::string(ev.algo) + ".iteration";
  EventBuilder e(events_, name, "X", 0, 0, ev.start_us);
  auto& w = e.writer();
  w.field("dur", ev.dur_us);
  w.key("args").begin_object();
  w.field("iteration", ev.iteration);
  w.field("ws_size", ev.ws_size);
  w.field("variant", ev.variant);
  w.field("on_cpu", ev.on_cpu);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::decision(const DecisionEvent& ev) {
  const std::string name = std::string(ev.algo) + ".decision";
  EventBuilder e(events_, name, "i", 0, decision_tid(), ev.ts_us);
  auto& w = e.writer();
  w.field("s", "t");  // thread-scoped instant
  w.key("args").begin_object();
  w.field("iteration", ev.iteration);
  w.field("ws_size", ev.ws_size);
  w.field("avg_outdegree", ev.avg_outdegree);
  w.field("outdeg_stddev", ev.outdeg_stddev);
  w.field("num_nodes", ev.num_nodes);
  w.field("t1", ev.t1);
  w.field("t2", ev.t2);
  w.field("t3_fraction", ev.t3_fraction);
  w.field("t3", ev.t3);
  w.field("skew_weight", ev.skew_weight);
  w.field("interval", ev.interval);
  w.field("prev_variant", ev.prev_variant);
  w.field("variant", ev.variant);
  w.field("switched", ev.switched);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::persistent(const PersistentEvent& ev) {
  const std::string name =
      std::string(ev.algo) + ".persistent." + ev.event;
  EventBuilder e(events_, name, "i", 0, decision_tid(), ev.ts_us);
  auto& w = e.writer();
  w.field("s", "t");  // thread-scoped instant
  w.key("args").begin_object();
  w.field("iteration", ev.iteration);
  w.field("ws_size", ev.ws_size);
  w.field("bound", ev.bound);
  w.field("t2", ev.t2);
  if (ev.has_alpha_term) w.field("alpha_term", ev.alpha_term);
  w.field("iterations", ev.iterations);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::service(const ServiceEvent& ev) {
  // Instant event on the decision lane: why a query skipped the device
  // (cache hit / collapse) or how the result cache changed.
  const std::string name = std::string("svc.") + ev.action;
  EventBuilder e(events_, name, "i", 0, decision_tid(), ev.ts_us);
  auto& w = e.writer();
  w.field("s", "t");
  w.key("args").begin_object();
  w.field("algo", ev.algo);
  w.field("graph", ev.graph);
  w.field("version", ev.version);
  w.field("source", ev.source);
  w.field("query", ev.query);
  if (ev.leader != 0) w.field("leader", ev.leader);
  w.field("bytes", ev.bytes);
  w.field("seq", ev.seq);
  w.end_object();
}

void ChromeTraceSink::fault(const FaultEvent& ev) {
  // Instant event on the faulting stream's lane (default stream: host lane),
  // so failed queries are visually attributable to their slot.
  const int tid = ev.stream == 0 ? 0 : stream_tid(ev.stream);
  note_lane(ev.device, ev.stream);
  const std::string name = std::string("fault.") + ev.kind;
  EventBuilder e(events_, name, "i", static_cast<int>(ev.device), tid, ev.ts_us);
  auto& w = e.writer();
  w.field("s", "t");
  w.key("args").begin_object();
  w.field("op", ev.op);
  w.field("op_index", ev.op_index);
  w.field("permanent", ev.permanent);
  if (ev.stream != 0) w.field("stream", ev.stream);
  w.field("seq", ev.seq);
  w.end_object();
}

std::string ChromeTraceSink::json() const {
  // Metadata events name the tracks; rendered fresh so lane and device counts
  // are final. One process group per device ordinal seen.
  std::string meta;
  auto emit_meta = [&meta](const char* kind, int pid, int tid,
                           const std::string& name) {
    JsonWriter w;
    w.begin_object();
    w.field("name", kind);
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", tid);
    w.key("args").begin_object().field("name", name).end_object();
    w.end_object();
    if (!meta.empty()) meta += ",\n";
    meta += w.str();
  };
  const bool fleet = max_stream_by_dev_.size() > 1;
  for (std::size_t d = 0; d < max_stream_by_dev_.size(); ++d) {
    const int pid = static_cast<int>(d);
    emit_meta("process_name", pid, 0,
              fleet ? "dev" + std::to_string(d) + " (simulated)"
                    : std::string("simulated device"));
    emit_meta("thread_name", pid, 0, "host / iterations");
    for (int lane = 0; lane < kernel_lanes_; ++lane) {
      emit_meta("thread_name", pid, 1 + lane,
                "kernels (SM-ish lane " + std::to_string(lane) + ")");
    }
    emit_meta("thread_name", pid, transfer_tid(), "pcie transfers");
    if (pid == 0) emit_meta("thread_name", pid, decision_tid(), "adaptive decisions");
    for (std::uint32_t s = 1; s <= max_stream_by_dev_[d]; ++s) {
      emit_meta("thread_name", pid, stream_tid(s), "stream " + std::to_string(s));
    }
  }

  std::string out = "{\"traceEvents\":[\n" + meta;
  if (!events_.empty()) {
    out += ",\n";
    out += events_;
  }
  out += "\n]}\n";
  return out;
}

void ChromeTraceSink::flush() {
  if (path_.empty()) return;
  std::ofstream f(path_, std::ios::binary | std::ios::trunc);
  if (f) f << json();
}

}  // namespace trace
