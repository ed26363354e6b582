// Types shared by the frontier engines: launch configuration knobs and the
// per-iteration variant-selection hook through which both the static
// implementations (constant selector) and the adaptive runtime (decision
// maker) drive the same traversal loop (paper Fig. 8, gg::FrontierLoop in
// gpu_graph/frontier_launch.h).
#pragma once

#include <cstdint>
#include <functional>

#include "gpu_graph/variant.h"
#include "simt/stream.h"

namespace graph {
struct Csr;
struct RelabeledGraph;
}

namespace gg {

// Host-side alternate-representation views for the in-engine representation
// controller (DESIGN.md "Representation adaptivity"). Non-owning: exec::run
// (api/exec.h) passes the Graph's cached views so repeated queries share
// one conversion; a null member means that layout is unavailable and the
// controller will not select it. `initial` is the upload-time decision the
// traversal starts in.
struct RepSet {
  const graph::RelabeledGraph* rel = nullptr;
  const graph::RelabeledGraph* bin = nullptr;
  Representation initial = Representation::plain;
};

struct EngineOptions {
  // Stream context (simt/stream.h): every kernel, transfer and host phase of
  // the traversal is issued on this stream, so traversals on different
  // streams of one device interleave on the modeled clock. 0 = the default
  // serialized stream (legacy single-query behavior).
  simt::StreamId stream = 0;
  // Paper Sec. VII.A: "the best results can be achieved with 192 threads per
  // block" for thread-based mapping.
  std::uint32_t thread_tpb = 192;
  // Paper Sec. VII.A: for block-based mapping "the optimal number of threads
  // per block is the multiple of 32 closest to the average node outdegree".
  // 0 = derive from the graph.
  std::uint32_t block_tpb = 0;
  // Working-set monitoring interval R (paper Sec. VI.E (ii)): the decision
  // point (selector call + monitoring kernel when in bitmap mode) runs every
  // R iterations. 0 = never (static runs: no monitoring overhead at all).
  std::uint32_t monitor_interval = 0;
  // Queue generation method (paper Sec. V.C): false = the basic atomic
  // insertion of [33]; true = the scan-based compaction of Merrill et al.,
  // which the paper cites as an orthogonal optimization.
  bool scan_queue_gen = false;
  // Safety valve; 0 = derive (a generous multiple of the node count).
  std::uint64_t max_iterations = 0;

  // Hybrid CPU/GPU execution (extension; cf. Hong et al. [13], which the
  // paper contrasts itself against): frontiers smaller than
  // `hybrid_cpu_threshold` are processed serially on the host, skipping the
  // kernel-launch + readback overhead that dominates small iterations.
  // Switching direction pays a full state-array transfer. 0 = disabled.
  std::uint64_t hybrid_cpu_threshold = 0;
  double hybrid_cpu_clock_ghz = 3.4;
  double hybrid_cpu_cycles_per_edge = 14.0;
  double hybrid_cpu_cycles_per_node = 8.0;

  // Host CSC (graph::build_csc) for pull iterations. When null and a pull
  // iteration occurs, the engine builds the transpose itself; exec::run
  // (api/exec.h) passes the Graph's cached CSC so repeated queries share one
  // build. The device copy is uploaded lazily into the
  // DeviceGraph on the first pull iteration and stays resident (Session
  // pinning keeps it across queries). Not owned; must outlive the call.
  const graph::Csr* csc = nullptr;

  // Alternate-representation views for the in-engine representation
  // controller (BFS only today). Null = representation switching off: the
  // traversal stays in whatever layout the graph was handed over in. Not
  // owned; must outlive the call.
  const RepSet* reps = nullptr;
};

// What the serving path (rt::AdaptiveOptions::persistent) lets a frontier
// traversal fold (DESIGN.md "Persistent iterations"). `init_kernel`: its
// fills and seeds become one init kernel (gg::InitKernel). `ws_below`, the
// bound F derived by rt::persistent_bound from the selector's own
// thresholds: for every |WS| < ws_below the selector keeps U_B_QU, push and
// the running layout, so the engine may run such iterations inside one
// persistent kernel; 0 keeps one launch per kernel. t2 and alpha_term are
// the two sides of the min that gave ws_below, for the trace. BFS, SSSP,
// CC, PageRank and the fused MS-BFS and SSSP batches take one; the default
// folds nothing.
struct PersistentBound {
  bool init_kernel = false;
  std::uint64_t ws_below = 0;
  std::uint64_t t2 = 0;
  bool has_alpha_term = false;
  std::uint64_t alpha_term = 0;
};

struct SelectorInput {
  std::uint32_t iteration = 0;
  // Working-set size as known to the runtime (exact at decision points,
  // stale in between — the sampling trade-off of Sec. VI.E).
  std::uint64_t ws_size = 0;
  double avg_outdegree = 0;   // whole-graph average (Sec. VI.E (i))
  double outdeg_stddev = 0;   // whole-graph spread (skew-aware mapping rule)
  std::uint32_t num_nodes = 0;
  // Direction-optimizing inputs (Beamer-style, fed from the same inspector
  // bookkeeping): out-edges incident to the working set, out-edges of
  // not-yet-touched vertices, total edges, and the direction the previous
  // iteration ran in (push on the initial selection).
  std::uint64_t frontier_edges = 0;
  std::uint64_t unexplored_edges = 0;
  std::uint64_t num_edges = 0;
  Direction direction = Direction::push;
  // Representation inputs: the layout the previous iteration ran in, the
  // whole-graph max outdegree (hub-ratio term of the static preference),
  // and which alternate layouts are available / already device-resident
  // (the amortization gate charges an unbuilt target more). The engine
  // keeps the ORIGINAL graph's stats in this struct even while running a
  // permuted or padded layout — decisions are about the logical graph.
  Representation representation = Representation::plain;
  std::uint32_t max_outdegree = 0;
  bool rel_available = false;
  bool bin_available = false;
  bool rel_resident = false;
  bool bin_resident = false;
};

using VariantSelector = std::function<Variant(const SelectorInput&)>;

inline VariantSelector fixed_variant(Variant v) {
  return [v](const SelectorInput&) { return v; };
}

// Canonicalizes a selected variant for execution. Direction::adaptive never
// reaches a kernel (the runtime controller resolves it; a fixed "_DO"
// variant without the controller degrades to push), and pull iterations run
// the canonical gather shape: a dense thread-per-vertex kernel over a
// bitmap frontier, so mapping/repr are forced to thread/bitmap — the repr
// force is also what guarantees the *previous* generate() materialized the
// frontier in the bitmap the gather tests membership against.
inline Variant normalize_direction(Variant v) {
  if (v.direction == Direction::adaptive) v.direction = Direction::push;
  if (v.direction == Direction::pull) {
    v.mapping = Mapping::thread;
    v.repr = WorksetRepr::bitmap;
  }
  return v;
}

// Representation::adaptive likewise never reaches a kernel: the runtime
// resolves it at upload time and per iteration; a fixed "_AREP" variant
// without the controller degrades to plain.
inline Variant normalize_representation(Variant v) {
  if (v.representation == Representation::adaptive) {
    v.representation = Representation::plain;
  }
  return v;
}

}  // namespace gg
