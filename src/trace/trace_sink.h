// Structured tracing: the pluggable sink interface and the process-wide
// Tracer that instrumentation sites publish to.
//
// Design constraints (see DESIGN.md, "Observability"):
//
//  * Zero overhead when off. Every instrumentation site is guarded by the
//    single inline `trace::active()` branch; with no sinks attached and the
//    counter registry disabled the branch is false and nothing else runs.
//  * Deterministic. Events carry the simulator's *modeled* timestamps
//    (Device::now_us()) and a monotonic sequence number — never wall-clock —
//    so traces are byte-identical for any --sim-threads value (the PR-1
//    determinism contract extends to trace artifacts).
//  * Single-threaded emission. The host API is single-threaded per Device
//    and all accounting (hence all event emission) happens on the calling
//    host thread. Drains record on ExecPool workers only while tracing is
//    off, so workers never emit. The Tracer therefore needs no locking.
//
// Event vocabulary: kernel launches, H<->D transfers, host compute phases,
// engine iterations, adaptive-runtime decisions and persistent runs. Sinks pick what they
// care about (ChromeTraceSink renders timelines; JsonlDecisionSink keeps
// only decisions).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace trace {

struct KernelEvent {
  const char* name = "";
  double start_us = 0;  // modeled device clock at launch
  double dur_us = 0;
  std::uint64_t blocks = 0;
  std::uint64_t total_threads = 0;
  std::uint64_t warps_executed = 0;
  double transactions = 0;
  double atomics = 0;
  double simd_efficiency = 1.0;
  std::uint32_t stream = 0;  // issuing simt stream; 0 = default stream
  std::uint32_t device = 0;  // fleet ordinal of the issuing device
  std::uint64_t seq = 0;
};

struct TransferEvent {
  double start_us = 0;
  double dur_us = 0;
  std::uint64_t bytes = 0;
  bool to_device = false;
  std::uint32_t stream = 0;
  std::uint32_t device = 0;  // fleet ordinal of the issuing device
  std::uint64_t seq = 0;
};

struct HostEvent {
  const char* name = "";
  double start_us = 0;
  double dur_us = 0;
  std::uint32_t stream = 0;
  std::uint32_t device = 0;  // fleet ordinal of the issuing device
  std::uint64_t seq = 0;
};

struct IterationEvent {
  const char* algo = "";  // "bfs", "sssp", "cc", "mst", "pagerank", ...
  std::uint32_t iteration = 0;
  std::uint64_t ws_size = 0;
  std::string variant;    // paper naming, e.g. "U_T_QU"
  bool on_cpu = false;    // hybrid execution: processed on the host
  double start_us = 0;
  double dur_us = 0;
  std::uint64_t seq = 0;
};

// An injected (or genuine) device fault: which op kind failed, at which
// per-kind op index, and whether the device is permanently dead. Emitted by
// Device at the throw site, before the DeviceFault propagates.
struct FaultEvent {
  const char* kind = "";  // "alloc" | "transfer" | "kernel"
  std::string op;         // kernel/buffer name or "memcpy.h2d" etc.
  std::uint64_t op_index = 0;
  bool permanent = false;
  std::uint32_t stream = 0;
  std::uint32_t device = 0;  // fleet ordinal of the faulting device
  double ts_us = 0;
  std::uint64_t seq = 0;
};

// One adaptive decision point: every input the decision maker saw, what it
// chose, and whether that changed the running variant.
struct DecisionEvent {
  const char* algo = "";
  std::uint32_t iteration = 0;     // 0 = initial selection before iterating
  std::uint64_t ws_size = 0;
  double avg_outdegree = 0;
  double outdeg_stddev = 0;
  std::uint32_t num_nodes = 0;
  double t1 = 0;                   // avg-outdegree threshold
  double t2 = 0;                   // |WS| mapping threshold
  double t3_fraction = 0;          // bitmap/queue threshold, fraction of n
  std::uint64_t t3 = 0;            // t3_fraction * num_nodes, absolute
  double skew_weight = 0;
  // Direction-optimizing inputs/outcome (4th adaptive dimension): the
  // direction chosen for the next iteration plus the Beamer-controller
  // inputs and knobs it saw. direction is "push" even for runs without the
  // controller (the scatter formulation is the default).
  const char* direction = "push";
  // Representation chosen for the next iteration (5th adaptive dimension):
  // "plain" even for runs without the representation controller.
  const char* representation = "plain";
  std::uint64_t frontier_edges = 0;
  std::uint64_t unexplored_edges = 0;
  double do_alpha = 0;
  double do_beta = 0;
  std::uint32_t interval = 0;      // sampling interval R
  std::string prev_variant;        // empty on the initial selection
  std::string variant;             // chosen
  bool switched = false;
  double ts_us = 0;                // modeled time of the decision
  std::uint64_t seq = 0;
};

// Entry to or exit from a persistent run (DESIGN.md "Persistent
// iterations") with both sides of the test it makes: the working set |WS|
// against F = min(T2, do_alpha term). The do_alpha term exists only under
// the direction controller. An exit record carries the |WS| that failed the
// test (0 when the traversal ended) and the iterations the run spanned.
struct PersistentEvent {
  const char* algo = "";
  const char* event = "enter";  // "enter" | "exit"
  std::uint32_t iteration = 0;
  std::uint64_t ws_size = 0;
  std::uint64_t bound = 0;       // F
  std::uint64_t t2 = 0;          // ceil(T2)
  bool has_alpha_term = false;
  std::uint64_t alpha_term = 0;  // floor(do_alpha * G_min / max_outdegree)
  std::uint32_t iterations = 0;  // exit only
  double ts_us = 0;
  std::uint64_t seq = 0;
};

// One serving-layer cache/collapse decision: why a query did (or did not)
// skip the device. Actions: "cache_hit" (answered from the result cache),
// "cache_miss" (lookup failed, device path follows), "cache_insert" (a
// completed exact payload entered the cache), "cache_evict" (LRU pressure),
// "cache_invalidate" (graph re-upload / version bump retired entries),
// "collapse" (an identical in-flight query attached to `leader`'s
// execution).
struct ServiceEvent {
  const char* action = "";
  const char* algo = "";       // "bfs", "sssp", "cc", "pagerank"
  std::uint64_t graph = 0;     // owner-scoped graph key
  std::uint64_t version = 0;   // graph version (+ upload generation)
  std::uint32_t source = 0;
  std::uint64_t query = 0;     // query id; 0 when not query-scoped
  std::uint64_t leader = 0;    // collapse: the execution being joined
  std::uint64_t bytes = 0;     // payload bytes moved / cached / dropped
  double ts_us = 0;            // modeled time of the decision
  std::uint64_t seq = 0;
};

// Sink interface; the default implementation ignores everything, so a sink
// overrides only the events it renders. flush() must leave any backing file
// complete and parseable.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void kernel(const KernelEvent&) {}
  virtual void transfer(const TransferEvent&) {}
  virtual void host(const HostEvent&) {}
  virtual void iteration(const IterationEvent&) {}
  virtual void decision(const DecisionEvent&) {}
  virtual void persistent(const PersistentEvent&) {}
  virtual void fault(const FaultEvent&) {}
  virtual void service(const ServiceEvent&) {}
  virtual void flush() {}
};

namespace detail {
// The one branch every instrumentation site pays when tracing is off.
extern bool g_active;
// Recomputed whenever sinks attach/detach or the counter registry toggles.
void recompute_active();
}  // namespace detail

inline bool active() { return detail::g_active; }

class Tracer {
 public:
  static Tracer& instance();

  // Takes ownership; returns a non-owning pointer for sinks the caller wants
  // to query after the run (tests read in-memory documents through it).
  TraceSink* attach(std::unique_ptr<TraceSink> sink);

  bool has_sinks() const { return !sinks_.empty(); }

  // Flushes every sink (files become complete documents).
  void flush();

  // Flushes, destroys all sinks, and resets the sequence counter and modeled
  // clock high-water mark — the state a fresh process would have.
  void clear();

  // Modeled-clock high-water mark: Device accounting refreshes it on every
  // event, so sites without a Device handle (the decision maker) can stamp
  // events consistently. Single-device timelines are exact; with several
  // devices it is the clock of whichever device last accounted.
  void set_time_us(double t) { time_us_ = t; }
  double time_us() const { return time_us_; }

  std::uint64_t next_seq() { return seq_++; }

  // Emission fan-out; fills in the sequence number.
  void kernel(KernelEvent ev);
  void transfer(TransferEvent ev);
  void host(HostEvent ev);
  void iteration(IterationEvent ev);
  void decision(DecisionEvent ev);
  void persistent(PersistentEvent ev);
  void fault(FaultEvent ev);
  void service(ServiceEvent ev);

 private:
  Tracer() = default;

  std::vector<std::unique_ptr<TraceSink>> sinks_;
  std::uint64_t seq_ = 0;
  double time_us_ = 0;
};

}  // namespace trace
