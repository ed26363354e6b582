// Algorithm entry points of the public API. Each call runs on a simulated
// GPU device: either one you pass in (sharing a device across calls keeps a
// cumulative clock and statistics), or — for the device-less convenience
// overloads — the calling thread's default Session (api/session.h), which
// keeps one device alive across calls. Prefer constructing a Session
// explicitly: it also keeps graphs resident on the device between queries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/graph_api.h"
#include "gpu_graph/metrics.h"
#include "gpu_graph/variant.h"
#include "runtime/adaptive_engine.h"
#include "simt/device.h"

namespace adaptive {

// Symmetrization policy for algorithms that require both arcs of every edge
// (cc, mst). auto_detect checks the graph (cached on adaptive::Graph) and
// symmetrizes only when needed; always/never skip the check and force the
// respective behavior. With `never`, the caller asserts the graph already
// stores both arcs — the result is otherwise arc-direction components.
enum class Symmetrize { auto_detect, always, never };

struct Policy {
  enum class Mode { adaptive, fixed_variant, cpu_serial };
  Mode mode = Mode::adaptive;
  gg::Variant variant{};          // used by fixed_variant
  rt::AdaptiveOptions options{};  // used by adaptive
  Symmetrize symmetrize = Symmetrize::auto_detect;  // cc()/mst() only

  static Policy adapt(rt::AdaptiveOptions opts = {}) {
    Policy p;
    p.mode = Mode::adaptive;
    p.options = std::move(opts);
    return p;
  }
  static Policy fixed(gg::Variant v) {
    Policy p;
    p.mode = Mode::fixed_variant;
    p.variant = v;
    return p;
  }
  // Accepts the paper's names, e.g. "U_B_QU".
  static Policy fixed(const std::string& variant_name) {
    return fixed(gg::parse_variant(variant_name));
  }
  static Policy cpu() {
    Policy p;
    p.mode = Mode::cpu_serial;
    return p;
  }
  Policy with_symmetrize(Symmetrize s) const {
    Policy p = *this;
    p.symmetrize = s;
    return p;
  }
  // Sets the traversal direction for BFS/SSSP/CC: on a fixed policy it pins
  // the variant's direction; on an adaptive policy Direction::adaptive
  // enables the direction-optimizing controller (Beamer push<->pull
  // hysteresis, alpha/beta knobs on options.thresholds).
  Policy with_direction(gg::Direction d) const {
    Policy p = *this;
    p.variant.direction = d;
    p.options.direction = d;
    return p;
  }
  // Sets the graph representation for BFS/SSSP/CC: on a fixed policy it pins
  // the variant's layout (_REL/_BIN); on an adaptive policy
  // Representation::adaptive enables the representation controller
  // (upload-time cost function + amortized mid-run switching, knobs on
  // options.thresholds). MST/PageRank always run plain — their results are
  // not invariant under renumbering.
  Policy with_representation(gg::Representation r) const {
    Policy p = *this;
    p.variant.representation = r;
    p.options.representation = r;
    return p;
  }
  gg::Representation representation() const {
    return mode == Mode::fixed_variant ? variant.representation
                                       : options.representation;
  }
  // True when this policy can reach a pull (gather) iteration, i.e. when
  // the CSC view may be needed.
  bool wants_pull() const {
    if (mode == Mode::cpu_serial) return false;
    const gg::Direction d =
        mode == Mode::fixed_variant ? variant.direction : options.direction;
    return d != gg::Direction::push;
  }
  // True when this policy can run an alternate graph layout, i.e. when the
  // relabelled/binned views may be needed.
  bool wants_rep() const {
    return mode != Mode::cpu_serial &&
           representation() != gg::Representation::plain;
  }
};

enum class Status {
  ok,
  rejected,   // serving layer: admission control refused the query
  timed_out,  // serving layer: deadline exceeded (payload dropped)
  error,      // see Result::error / Result::code
};

// Typed error taxonomy. Failures that used to abort the process (device
// memory exhaustion) or surface as ad-hoc strings (serving-layer rejections)
// carry one of these so callers can branch without parsing messages.
enum class ErrorCode : std::uint8_t {
  none = 0,          // status != error (or error field unused)
  device_oom,        // simulated global memory exhausted / injected alloc fault
  transfer_failed,   // injected host<->device transfer fault
  kernel_fault,      // injected kernel-launch fault
  device_lost,       // permanent device death (fault plan dead.after)
  deadline_exceeded, // serving layer: modeled finish time passed the deadline
  queue_full,        // serving layer: admission control (bounded queue)
  invalid_argument,  // bad source node, unweighted sssp, unservable policy
  io_error,          // typed graph-loading failure (graph/io.h)
  internal,          // catch-all; see the error string
};

const char* error_code_name(ErrorCode code);  // "device_oom", ...
// Human-readable description of the code ("simulated device memory
// exhausted", ...), for messages that must stand without the error string.
const char* error_code_message(ErrorCode code);

// Non-aborting policy parsing for user-supplied strings: "adaptive", "cpu",
// or a variant name ("U_T_BM", optionally with a _PULL/_DO direction
// suffix). Malformed input returns the typed invalid_argument error in the
// envelope instead of aborting the process (Policy::fixed keeps the legacy
// abort contract for programmatic names).
struct ParsedPolicy {
  Policy policy{};
  Status status = Status::ok;
  ErrorCode code = ErrorCode::none;
  std::string error;
  bool ok() const { return status == Status::ok; }
};
ParsedPolicy parse_policy(const std::string& name);

// Every algorithm returns its payload plus this uniform envelope. The
// payload's fields are inherited, so result.level / result.dist /
// result.component read exactly as they did with the per-algorithm *Output
// structs (kept as aliases below for source compatibility).
template <typename Payload>
struct Result : Payload {
  gg::TraversalMetrics metrics;  // empty for cpu_serial runs
  double cpu_wall_ms = 0;        // only for cpu_serial runs
  Status status = Status::ok;
  std::string error;             // non-empty iff status == Status::error
  ErrorCode code = ErrorCode::none;  // typed cause when status != ok
  // True when the query was answered by the serial CPU oracle because the
  // device was unhealthy or deadline pressure ruled out a device run. The
  // payload is exact; metrics are empty and cpu_wall_ms is modeled.
  bool degraded = false;

  bool ok() const { return status == Status::ok; }

  // One attributable line for logs and test failures: the typed code plus
  // the context string ("device_lost: dev2: device fault: kernel 'bfs.expand'
  // at op 7 (device dead)"). Fleet paths prefix the device index / shard id
  // into `error`, so the message pinpoints the faulting component.
  std::string error_message() const {
    if (status == Status::ok) return "";
    std::string msg = error_code_name(code);
    msg += ": ";
    msg += error.empty() ? error_code_message(code) : error;
    return msg;
  }
};

struct BfsPayload {
  std::vector<std::uint32_t> level;  // kUnreachable where not reached
};
struct SsspPayload {
  std::vector<std::uint32_t> dist;
};
struct CcPayload {
  std::vector<std::uint32_t> component;  // smallest node id per component
  std::uint32_t num_components = 0;
};
struct MstPayload {
  std::uint64_t total_weight = 0;
  std::uint32_t num_trees = 0;
  std::uint32_t edges_in_forest = 0;
};
struct PageRankPayload {
  std::vector<double> rank;
};

using BfsResult = Result<BfsPayload>;
using SsspResult = Result<SsspPayload>;
using CcResult = Result<CcPayload>;
using MstResult = Result<MstPayload>;
using PageRankResult = Result<PageRankPayload>;

// Pre-Result<> spelling; prefer the *Result names in new code.
using BfsOutput = BfsResult;
using SsspOutput = SsspResult;
using CcOutput = CcResult;
using MstOutput = MstResult;
using PageRankOutput = PageRankResult;

BfsResult bfs(simt::Device& dev, const Graph& g, NodeId source,
              const Policy& policy = {});
SsspResult sssp(simt::Device& dev, const Graph& g, NodeId source,
                const Policy& policy = {});
// Weakly-connected components; policy.symmetrize controls reverse-arc
// closure (auto_detect by default — directed graphs are symmetrized first).
CcResult cc(simt::Device& dev, const Graph& g, const Policy& policy = {});
// Minimum spanning forest (Boruvka on the device, Kruskal on the CPU
// policy); policy.symmetrize as in cc().
MstResult mst(simt::Device& dev, const Graph& g, const Policy& policy = {});
// PageRank with damping knob; dangling mass absorbed (see
// cpu/pagerank_serial.h for the exact fixpoint).
PageRankResult pagerank(simt::Device& dev, const Graph& g,
                        double damping = 0.85, const Policy& policy = {});

// Device-less convenience overloads: thin wrappers over the calling thread's
// default Session (api/session.h). The session's device — and therefore its
// modeled clock and cumulative stats — persists across calls on the thread.
BfsResult bfs(const Graph& g, NodeId source, const Policy& policy = {});
SsspResult sssp(const Graph& g, NodeId source, const Policy& policy = {});
CcResult cc(const Graph& g, const Policy& policy = {});
PageRankResult pagerank(const Graph& g, double damping = 0.85,
                        const Policy& policy = {});
MstResult mst(const Graph& g, const Policy& policy = {});

namespace detail {

// Maps a device fault to the public taxonomy; permanent faults (dead
// device) collapse to device_lost regardless of the faulting op kind.
ErrorCode fault_code(const simt::DeviceFault& f);

// The error Result a device fault surfaces as.
template <typename ResultT>
ResultT fault_result(const simt::DeviceFault& f) {
  ResultT out;
  out.status = Status::error;
  out.code = fault_code(f);
  out.error = f.what();
  return out;
}

}  // namespace detail

}  // namespace adaptive
