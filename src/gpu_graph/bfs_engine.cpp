#include "gpu_graph/bfs_engine.h"

#include <algorithm>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"
#include "simt/launch.h"

namespace gg {
namespace {

// Static access sites of the CUDA_computation kernel (Fig. 9 top).
constexpr simt::Site kNodeLevel{0, "bfs.node-level"};
constexpr simt::Site kRowOffsets{1, "bfs.row-offsets"};
constexpr simt::Site kNodeOps{2, "bfs.node-ops"};
constexpr simt::Site kEdgeLoad{3, "bfs.edge-load"};
constexpr simt::Site kEdgeOps{4, "bfs.edge-ops"};
constexpr simt::Site kNbrLevel{5, "bfs.nbr-level"};
constexpr simt::Site kLevelStore{6, "bfs.level-store"};
constexpr simt::Site kUpdateLoad{7, "bfs.update-load"};
constexpr simt::Site kUpdateStore{8, "bfs.update-store"};
constexpr simt::Site kQueueLoad{9, "bfs.queue-load"};
constexpr simt::Site kBitmapClear{10, "bfs.bitmap-clear"};
constexpr simt::Site kPullRowOffsets{11, "bfs.pull-row-offsets"};
constexpr simt::Site kPullEdgeLoad{12, "bfs.pull-edge-load"};
constexpr simt::Site kPullFrontierTest{13, "bfs.pull-frontier-test"};
constexpr simt::Site kRepOldId{14, "bfs.rep-old-id"};
constexpr simt::Site kRepLevelLoad{15, "bfs.rep-level-load"};
constexpr simt::Site kRepLevelStore{16, "bfs.rep-level-store"};

constexpr FrontierKernels kCompute{
    "bfs.compute.T_BM", "bfs.compute.T_QU", "bfs.compute.B_BM",
    "bfs.compute.B_QU", "bfs.compute.W_BM", "bfs.compute.W_QU",
    kQueueLoad,         kBitmapClear,       kUpdateLoad,
    kUpdateStore};
using Loop = FrontierLoop<kCompute>;

struct BfsEngine {
  BfsEngine(const graph::Csr& g, DeviceGraph& dg, const EngineOptions& opts)
      : g(g), dg(dg), opts(opts), cur_dg(&dg) {}

  const graph::Csr& g;
  DeviceGraph& dg;
  const EngineOptions& opts;
  // Representation controller state (DESIGN.md "Representation
  // adaptivity"). `cur_dg` and the loop's graph always describe the layout
  // the kernels run over; `cur_view` carries the id maps when that layout
  // is not the plain CSR (null = identity). Host bookkeeping (`seen`,
  // unexplored mass) and the selector's topology stats stay in ORIGINAL
  // graph terms throughout — the decisions are about the logical graph,
  // not the layout du jour.
  DeviceGraph* cur_dg;
  Representation rep = Representation::plain;
  const graph::RelabeledGraph* cur_view = nullptr;
  std::optional<graph::RelabeledGraph> rel_scratch;
  std::optional<graph::RelabeledGraph> bin_scratch;
  std::optional<graph::Csr> csc_scratch;
  std::optional<graph::Csr> csc_scratch_rep;
  simt::DeviceBuffer<std::uint32_t> level;
  // Direction-optimizing bookkeeping (Beamer-style, host side): out-edges
  // of vertices the traversal has not touched yet, maintained by
  // first-touch accounting over the updated lists.
  std::vector<std::uint8_t> seen;
  std::uint64_t unexplored_edges = 0;
  bool ordered = false;

  const graph::RelabeledGraph* obtain_view(Representation kind) {
    const bool to_rel = kind == Representation::relabelled;
    const graph::RelabeledGraph* view =
        to_rel ? opts.reps->rel : opts.reps->bin;
    if (view == nullptr) {
      auto& scratch = to_rel ? rel_scratch : bin_scratch;
      if (!scratch) {
        scratch = to_rel ? graph::relabel_by_degree(g) : graph::build_binned(g);
      }
      view = &*scratch;
    }
    return view;
  }
  std::uint32_t to_cur(std::uint32_t orig) const {
    return cur_view ? cur_view->new_id[orig] : orig;
  }

  // Per-element body shared by all launch shapes (frontier_launch.h).
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kCompute>& push) {
    const std::uint32_t lvl = ctx.load(level, id, kNodeLevel);
    const std::uint32_t begin = ctx.load(cur_dg->row_offsets, id, kRowOffsets);
    const std::uint32_t end =
        ctx.load(cur_dg->row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);
    const std::uint32_t next = lvl + 1;

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(cur_dg->col_indices, e, kEdgeLoad);
      ctx.compute(3, kEdgeOps);
      const std::uint32_t tl = ctx.load(level, t, kNbrLevel);
      // Fig. 4: ordered processes a node once (undefined level); unordered
      // re-admits as long as the level decreases.
      const bool improves = ordered ? tl == graph::kInfinity : next < tl;
      if (improves) {
        ctx.store(level, t, next, kLevelStore);
        push.mark(t);
      }
    }
  }

  // Hybrid CPU phase: the same relaxation as a serial host loop, the
  // hybrid's whole advantage on high-diameter graphs.
  void host(Loop& loop) {
    auto level_view = level.host_view();
    for (const std::uint32_t v : loop.frontier) {
      const std::uint32_t next_level = level_view[v] + 1;
      for (const graph::NodeId t : loop.graph->neighbors(v)) {
        const bool improves = ordered ? level_view[t] == graph::kInfinity
                                      : next_level < level_view[t];
        if (improves) {
          level_view[t] = next_level;
          loop.admit(t);
        }
      }
    }
  }

  // Pull (gather) formulation, Beamer-style: make the CSC resident (first
  // pull pays the transfer; Session pins keep it across queries), then a
  // dense thread-per-vertex kernel in which every *unvisited* vertex scans
  // its in-neighbors (CSC) for a frontier member, early-exiting on the
  // first hit. No scatter-side work at all — each thread stores only to
  // its own level/update cells, so there is no inter-thread claim on the
  // update flag — and the in-edge reads are the coalesced gather the CSC
  // exists for. Blocks run in block order on one host thread, so
  // discovered ids are push_backed into the host-side updated shadow.
  void pull(Loop& loop) {
    const bool plain = rep == Representation::plain;
    ensure_csc_resident(loop.dev, *cur_dg, *loop.graph,
                        plain ? opts.csc : nullptr, /*with_weights=*/false,
                        plain ? csc_scratch : csc_scratch_rep);
    const DeviceGraph& d = *cur_dg;
    const auto grid = simt::GridSpec::dense(d.num_nodes, opts.thread_tpb);
    simt::launch(loop.dev, "bfs.compute.T_PULL", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t lvl = ctx.load(level, id, kNodeLevel);
      ctx.compute(1, kNodeOps);
      if (lvl != graph::kInfinity) return;  // visited: one load and out
      const std::uint32_t begin = ctx.load(d.in_row_offsets, id, kPullRowOffsets);
      const std::uint32_t end =
          ctx.load(d.in_row_offsets, id + 1, kPullRowOffsets);
      ctx.compute(2, kNodeOps);
      for (std::uint32_t e = begin; e < end; ++e) {
        const std::uint32_t u = ctx.load(d.in_col_indices, e, kPullEdgeLoad);
        ctx.compute(2, kEdgeOps);
        if (ctx.load(loop.ws.bitmap(), u, kPullFrontierTest) == 0) continue;
        const std::uint32_t ul = ctx.load(level, u, kNbrLevel);
        ctx.store(level, id, ul + 1, kLevelStore);
        ctx.store(loop.ws.update(), id, std::uint8_t{1}, kUpdateStore);
        loop.updated.push_back(id);
        break;  // first frontier in-neighbor wins; rest of the scan is skipped
      }
    });
  }

  // First-touch accounting of the nodes just reached.
  void after_compute(Loop& loop) {
    for (const std::uint32_t v : loop.updated) {
      const std::uint32_t ov = cur_view ? cur_view->old_id[v] : v;
      if (!seen[ov]) {
        seen[ov] = 1;
        unexplored_edges -= loop.graph->degree(v);
      }
    }
  }

  void inputs(SelectorInput& sel) const {
    sel.unexplored_edges = unexplored_edges;
    sel.representation = rep;
    sel.rel_resident = dg.rep_resident(Representation::relabelled, false);
    sel.bin_resident = dg.rep_resident(Representation::binned, false);
  }

  // Representation switches are single-hop from plain and only apply on
  // device (a CPU phase has no layout to speak of); anything else keeps the
  // layout the traversal is already in.
  void decided(const Loop& loop, Variant& next, bool next_on_cpu) const {
    if (next.representation != rep &&
        (opts.reps == nullptr || rep != Representation::plain ||
         loop.on_cpu || next_on_cpu)) {
      next.representation = rep;
    }
  }

  // Mid-run representation switch (amortization-checked by the
  // controller): pin the target layout (conversion billed on the copy
  // engine), migrate the level array on-device through the id maps, and
  // re-seed the working set in the new id space.
  void relayout(Loop& loop, const Variant& next) {
    if (next.representation == rep) return;
    simt::Device& dev = loop.dev;
    const graph::RelabeledGraph* view = obtain_view(next.representation);
    DeviceGraph& ndg = dg.ensure_rep_resident(dev, next.representation,
                                              *view, /*with_weights=*/false);
    DeviceGraph::RepResident& maps = dg.rep_slot(next.representation);
    const std::uint32_t n_new = ndg.num_nodes;
    auto nlevel = dev.alloc<std::uint32_t>(n_new, "bfs.level");
    const auto grid = simt::GridSpec::dense(n_new, opts.thread_tpb);
    simt::launch(dev, "bfs.rep.migrate", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t old = ctx.load(maps.old_id, id, kRepOldId);
      const std::uint32_t lvl =
          old == graph::kInfinity
              ? graph::kInfinity
              : ctx.load(level, old, kRepLevelLoad);
      ctx.store(nlevel, id, lvl, kRepLevelStore);
    });
    dev.free(level);
    level = std::move(nlevel);
    loop.ws.release(dev);
    loop.ws = Workset(dev, n_new, opts.scan_queue_gen);
    for (std::uint32_t& v : loop.updated) v = view->new_id[v];
    std::sort(loop.updated.begin(), loop.updated.end());
    cur_view = view;
    loop.graph = &view->csr;
    cur_dg = &ndg;
    rep = next.representation;
  }
};

}  // namespace

GpuBfsResult run_bfs(simt::Device& dev, const graph::Csr& g, graph::NodeId source,
                     const VariantSelector& selector, const EngineOptions& opts,
                     const PersistentBound& persistent) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_bfs(dev, dg, g, source, selector, opts,
                                       persistent);
                      });
}

GpuBfsResult run_bfs(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                     graph::NodeId source, const VariantSelector& selector,
                     const EngineOptions& opts,
                     const PersistentBound& persistent) {
  AGG_CHECK(source < g.num_nodes);
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuBfsResult result;
  BfsEngine bfs(g, dg, opts);
  const RepSet* reps = opts.reps;
  if (reps && reps->initial != Representation::plain) {
    // Upload-time decision: start directly in the preferred layout. The
    // conversion upload is charged here (a no-op when a Session pin already
    // holds the layout resident).
    bfs.cur_view = bfs.obtain_view(reps->initial);
    bfs.cur_dg = &dg.ensure_rep_resident(dev, reps->initial, *bfs.cur_view,
                                         /*with_weights=*/false);
    bfs.rep = reps->initial;
  }
  const graph::Csr& start = bfs.cur_view ? bfs.cur_view->csr : g;

  bfs.level = dev.alloc<std::uint32_t>(start.num_nodes, "bfs.level");
  InitKernel init(dev, persistent, opts.hybrid_cpu_threshold > 0, "bfs.init",
                  1);
  dev.fill(bfs.level, graph::kInfinity);
  dev.seed_scalar(bfs.level, bfs.to_cur(source), 0u);
  Loop loop(dev, start, dg, opts, result.metrics);

  bfs.unexplored_edges = dg.num_edges - g.degree(source);
  bfs.seen.assign(g.num_nodes, 0);
  bfs.seen[source] = 1;

  SelectorInput& sel = loop.sel;
  sel.ws_size = 1;
  sel.frontier_edges = g.degree(source);
  sel.num_edges = dg.num_edges;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    sel.max_outdegree = std::max(sel.max_outdegree, g.degree(v));
  }
  sel.rel_available = reps != nullptr;
  sel.bin_available = reps != nullptr;
  bfs.inputs(sel);
  loop.variant = normalize_direction(selector(sel));
  loop.variant.representation = bfs.rep;
  bfs.ordered = loop.variant.ordering == Ordering::ordered;
  loop.seed_source(bfs.to_cur(source));
  init.end();
  loop.run(bfs, "bfs", selector, 4ull * g.num_nodes + 64, persistent,
           "bfs.persistent");

  // Download the result (included in the measured time, as in the paper).
  // A traversal that ends in an alternate layout downloads the slot-space
  // levels and maps them back to original ids — payloads never leave the
  // engine in a permuted space.
  std::vector<std::uint32_t> slot_level(loop.graph->num_nodes);
  loop.download(bfs.level, slot_level);
  if (bfs.cur_view) {
    result.level.resize(g.num_nodes);
    for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
      result.level[v] = slot_level[bfs.cur_view->new_id[v]];
    }
  } else {
    result.level = std::move(slot_level);
  }

  loop.ws.release(dev);
  dev.free(bfs.level);

  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
