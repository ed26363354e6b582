// The adaptive runtime (paper Sec. VI): couples the graph inspector and the
// decision maker to the traversal engines, re-selecting the implementation
// among the four unordered variants at (sampled) decision points during the
// traversal. Representation switches cost nothing extra because every
// iteration regenerates the working set from the shared update vector.
#pragma once

#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/cc_engine.h"
#include "gpu_graph/mst_engine.h"
#include "gpu_graph/multi_source_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "runtime/decision.h"
#include "runtime/inspector.h"

namespace rt {

struct AdaptiveOptions {
  // Default thresholds are derived from the device at run time; set
  // `thresholds_overridden` to pin explicit values (threshold sweeps).
  Thresholds thresholds;
  bool thresholds_overridden = false;
  std::uint32_t monitor_interval = 1;  // sampling rate R
  // Traversal direction for the unordered BFS/SSSP/CC engines:
  //  * push     — the paper's scatter formulation (default; unchanged);
  //  * pull     — force the gather (CSC) formulation every iteration;
  //  * adaptive — direction-optimizing: the controller flips push->pull when
  //    frontier_edges > do_alpha * unexplored_edges and back to push when
  //    the frontier shrinks below do_beta * num_nodes (Beamer hysteresis,
  //    knobs on `thresholds`). MST, PageRank and the fused multi-source
  //    paths have no gather formulation and always run push.
  gg::Direction direction = gg::Direction::push;
  // Graph representation for the traversal (DESIGN.md "Representation
  // adaptivity", the 5th adaptive dimension):
  //  * plain      — the CSR as given (default; unchanged behavior);
  //  * relabelled — degree-relabelled CSR (graph::relabel_by_degree);
  //  * binned     — warp-aligned degree-bucketed CSR (graph::build_binned);
  //  * adaptive   — the upload-time cost function (decide_representation)
  //    picks the layout; for BFS the per-iteration controller may also
  //    switch layouts mid-run, amortization-checked against the remaining
  //    edge mass. Payloads are always mapped back to original ids before
  //    they leave the engine layer. SSSP/CC resolve `adaptive` once at
  //    query start (the API layer's job), fused SSSP once per batch; MST
  //    and PageRank always run plain (their results are not invariant under
  //    renumbering: FP summation order / in-place contraction), and so does
  //    the fused MS-BFS path.
  gg::Representation representation = gg::Representation::plain;
  // The serving path's fixed-cost folding for BFS, unordered SSSP, CC,
  // PageRank and the fused multi-source traversals (an extension, not the paper's runtime; DESIGN.md
  // "Persistent iterations"): each traversal starts with one init kernel in
  // place of its fills and seed writes, and iterations whose working set is
  // below the derived bound rt::persistent_bound run inside one persistent
  // kernel, with one launch and one termination readback per run.
  // Decisions and answers are those of the per-iteration runtime; only the
  // modeled launch, readback and seed charges change. Off here, so the
  // paper benches reproduce the paper's runtime; exec::run and
  // exec::run_batch turn it on. Hybrid CPU phases, when enabled, take
  // precedence over all of it. MST keeps per-iteration launches.
  bool persistent = false;
  gg::EngineOptions engine;            // tpb knobs (monitor_interval is set here)
};

// Wraps the decision maker as an engine selector. The three-argument form
// additionally publishes a trace::DecisionEvent at every decision point
// (inputs, thresholds, chosen variant, whether the running variant switched)
// when tracing is active; `interval` is the sampling rate R recorded in the
// event, `algo` labels the trace stream. Selector copies share the
// prev-variant state, so the switch flag stays correct however the engine
// stores the std::function.
gg::VariantSelector make_adaptive_selector(const Thresholds& thresholds);

// Id-space mapping helpers for callers that run an engine directly on an
// alternate-representation CSR (fixed _REL/_BIN policies): payloads must be
// mapped back to original ids before leaving the engine layer.
// rep_payload_to_original: payload_orig[v * width + s] =
// payload_slot[new_id[v] * width + s], `width` values per node (the sources
// of a fused multi-source answer).
void rep_payload_to_original(std::vector<std::uint32_t>& payload,
                             const graph::RelabeledGraph& view,
                             std::uint32_t width = 1);
// CC labels are "smallest id in the component" in the running id space;
// canonicalize to smallest ORIGINAL id and recount over original nodes
// (binned pad slots drop out).
void rep_canonicalize_cc(gg::GpuCcResult& r, const graph::RelabeledGraph& view);
gg::VariantSelector make_adaptive_selector(
    const Thresholds& thresholds, std::uint32_t interval, const char* algo,
    gg::Direction direction = gg::Direction::push,
    gg::Representation representation = gg::Representation::plain);

gg::GpuBfsResult adaptive_bfs(simt::Device& dev, const graph::Csr& g,
                              graph::NodeId source, const AdaptiveOptions& opts = {});

gg::GpuSsspResult adaptive_sssp(simt::Device& dev, const graph::Csr& g,
                                graph::NodeId source,
                                const AdaptiveOptions& opts = {});

// Connected components (extension algorithm); the graph must be symmetric.
gg::GpuCcResult adaptive_cc(simt::Device& dev, const graph::Csr& g,
                            const AdaptiveOptions& opts = {});

// Minimum spanning forest by Boruvka (extension algorithm); the graph must
// be symmetric and weighted.
gg::GpuMstResult adaptive_mst(simt::Device& dev, const graph::Csr& g,
                              const AdaptiveOptions& opts = {});

// PageRank by residual push (extension algorithm).
gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, const graph::Csr& g,
                                        const gg::PageRankOptions& pr = {},
                                        const AdaptiveOptions& opts = {});

// Resident-graph forms (see bfs_engine.h): the caller keeps `dg` uploaded
// across queries (Session / the serving layer), so no upload is charged and
// opts.engine.stream places the whole traversal on a simt stream.
gg::GpuBfsResult adaptive_bfs(simt::Device& dev, gg::DeviceGraph& dg,
                              const graph::Csr& g, graph::NodeId source,
                              const AdaptiveOptions& opts = {});
gg::GpuSsspResult adaptive_sssp(simt::Device& dev, gg::DeviceGraph& dg,
                                const graph::Csr& g, graph::NodeId source,
                                const AdaptiveOptions& opts = {});
gg::GpuCcResult adaptive_cc(simt::Device& dev, gg::DeviceGraph& dg,
                            const graph::Csr& g,
                            const AdaptiveOptions& opts = {});
gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, gg::DeviceGraph& dg,
                                        const graph::Csr& g,
                                        const gg::PageRankOptions& pr = {},
                                        const AdaptiveOptions& opts = {});

// Batched multi-source BFS and unordered SSSP with adaptive selection over
// the fused traversals (the serving layer's coalesced same-graph path). Both
// run push only. SSSP resolves `representation` once per batch, as
// adaptive_sssp does per query, and runs the whole batch in that layout.
gg::GpuMultiResult adaptive_bfs_multi(simt::Device& dev, gg::DeviceGraph& dg,
                                      const graph::Csr& g,
                                      std::span<const graph::NodeId> sources,
                                      const AdaptiveOptions& opts = {});
gg::GpuMultiResult adaptive_sssp_multi(simt::Device& dev, gg::DeviceGraph& dg,
                                       const graph::Csr& g,
                                       std::span<const graph::NodeId> sources,
                                       const AdaptiveOptions& opts = {});

}  // namespace rt
