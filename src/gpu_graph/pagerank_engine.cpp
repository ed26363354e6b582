#include "gpu_graph/pagerank_engine.h"

#include <algorithm>
#include <numeric>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"
#include "gpu_graph/workset.h"

namespace gg {
namespace {

constexpr simt::Site kResidual{0, "pr.residual"};
constexpr simt::Site kRankStore{1, "pr.rank"};
constexpr simt::Site kRowOffsets{2, "pr.row-offsets"};
constexpr simt::Site kNodeOps{3, "pr.node-ops"};
constexpr simt::Site kEdgeLoad{4, "pr.edge-load"};
constexpr simt::Site kEdgeOps{5, "pr.edge-ops"};
constexpr simt::Site kPush{6, "pr.push-atomic"};
constexpr simt::Site kUpdateLoad{7, "pr.update-load"};
constexpr simt::Site kUpdateStore{8, "pr.update-store"};
constexpr simt::Site kQueueLoad{9, "pr.queue-load"};
constexpr simt::Site kBitmapClear{10, "pr.bitmap-clear"};

struct PrState {
  simt::DeviceBuffer<float>* rank;
  simt::DeviceBuffer<float>* residual;
  DeviceGraph* graph;
  Workset* ws;
  std::vector<std::uint32_t>* updated;
  // Residuals of the frontier as of kernel launch, indexed by node id. On
  // real hardware every lane of an element's warp reads r[id] in lockstep
  // before the owner clears it; the sequential lane emulation reproduces
  // that by snapshotting at launch. Pushes that land on a frontier node
  // *during* the kernel stay in its residual for the next round.
  std::vector<float>* snapshot;
  float damping;
  float push_tolerance;
};

// Folds the node's residual into its rank and pushes damped shares. The
// residual is consumed by the element's *owner* lane (thread mapping) or
// lane 0 (block/warp mapping); pushes are strided like the other engines.
void push_element(simt::ThreadCtx& ctx, PrState& st, std::uint32_t id,
                  std::uint32_t offset, std::uint32_t step) {
  const float now = ctx.load(*st.residual, id, kResidual);
  const float res = (*st.snapshot)[id];  // lockstep read-before-clear value
  const std::uint32_t begin = ctx.load(st.graph->row_offsets, id, kRowOffsets);
  const std::uint32_t end = ctx.load(st.graph->row_offsets, id + 1, kRowOffsets);
  ctx.compute(6, kNodeOps);
  if (offset == 0) {
    // Claim the snapshot residual: fold into the rank, leave any mass that
    // arrived during this kernel for the next round.
    const float rank = ctx.load(*st.rank, id, kRankStore);
    ctx.store(*st.rank, id, rank + res, kRankStore);
    ctx.store(*st.residual, id, now - res, kResidual);
  }
  const std::uint32_t deg = end - begin;
  if (deg == 0) return;  // dangling: mass absorbed
  const float share = st.damping * res / static_cast<float>(deg);

  for (std::uint32_t e = begin + offset; e < end; e += step) {
    const std::uint32_t t = ctx.load(st.graph->col_indices, e, kEdgeLoad);
    ctx.compute(3, kEdgeOps);
    const float before = ctx.atomic_add(*st.residual, t, share, kPush);
    const float after = before + share;
    if (after >= st.push_tolerance &&
        ctx.load(st.ws->update(), t, kUpdateLoad) == 0) {
      ctx.store(st.ws->update(), t, std::uint8_t{1}, kUpdateStore);
      st.updated->push_back(t);
    }
  }
}

constexpr FrontierKernels kCompute{
    "pr.compute.T_BM", "pr.compute.T_QU", "pr.compute.B_BM",
    "pr.compute.B_QU", "pr.compute.W_BM", "pr.compute.W_QU",
    kQueueLoad, kBitmapClear};

}  // namespace

GpuPageRankResult run_pagerank(simt::Device& dev, const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.engine.stream,
                      [&](DeviceGraph& dg) {
                        return run_pagerank(dev, dg, g, selector, opts);
                      });
}

GpuPageRankResult run_pagerank(simt::Device& dev, DeviceGraph& dg,
                               const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts) {
  AGG_CHECK(g.num_nodes > 0);
  AGG_CHECK(opts.damping > 0.0 && opts.damping < 1.0);
  simt::StreamGuard sguard(dev, opts.engine.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuPageRankResult result;
  const std::uint32_t block_tpb = opts.engine.block_tpb
                                      ? opts.engine.block_tpb
                                      : derive_block_tpb(dg.avg_outdegree);

  auto rank = dev.alloc<float>(g.num_nodes, "pr.rank");
  auto residual = dev.alloc<float>(g.num_nodes, "pr.residual");
  dev.fill(rank, 0.0f);
  dev.fill(residual,
           static_cast<float>((1.0 - opts.damping) / g.num_nodes));
  Workset ws(dev, g.num_nodes, opts.engine.scan_queue_gen);

  SelectorInput sel;
  sel.ws_size = g.num_nodes;
  sel.avg_outdegree = dg.avg_outdegree;
  sel.outdeg_stddev = dg.outdeg_stddev;
  sel.num_nodes = g.num_nodes;
  Variant variant = selector(sel);
  variant.ordering = Ordering::unordered;

  std::vector<std::uint32_t> frontier(g.num_nodes);
  std::iota(frontier.begin(), frontier.end(), 0u);
  std::fill(ws.update().host_view().begin(), ws.update().host_view().end(),
            std::uint8_t{1});
  ws.generate(dev, variant.repr, frontier);

  std::vector<std::uint32_t> updated;
  std::vector<float> snapshot(g.num_nodes, 0.0f);
  // The re-entry threshold scales with the per-node teleport mass so that
  // accuracy is independent of the graph size.
  const auto threshold = static_cast<float>(
      opts.push_tolerance * (1.0 - opts.damping) / g.num_nodes);
  PrState st{&rank,
             &residual,
             &dg,
             &ws,
             &updated,
             &snapshot,
             static_cast<float>(opts.damping),
             threshold};

  const std::uint64_t max_iters =
      opts.engine.max_iterations ? opts.engine.max_iterations
                                 : 64ull * g.num_nodes + 4096;

  std::uint32_t iteration = 0;
  while (!frontier.empty()) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= max_iters, "PageRank failed to converge");
    IterationClock t_iter{dev.mark()};

    for (const std::uint32_t v : frontier) {
      snapshot[v] = residual.host_view()[v];
    }
    launch_frontier<kCompute>(
        dev, variant, ws, frontier, opts.engine.thread_tpb, block_tpb,
        [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
            std::uint32_t step) { push_element(ctx, st, id, offset, step); });
    for (const std::uint32_t v : frontier) {
      result.metrics.edges_processed += g.degree(v);
    }
    std::sort(updated.begin(), updated.end());
    ws.charge_termination_readback(dev);

    Variant next = variant;
    const std::uint32_t interval =
        opts.engine.monitor_interval ? opts.engine.monitor_interval : 0;
    if (interval > 0 && iteration % interval == 0) {
      if (variant.repr == WorksetRepr::bitmap) {
        ws.charge_bitmap_count_kernel(dev);
      }
      sel.iteration = iteration;
      sel.ws_size = updated.size();
      ++result.metrics.decisions;
      next = selector(sel);
      next.ordering = Ordering::unordered;
      if (next != variant) ++result.metrics.switches;
    }

    if (!updated.empty()) {
      ws.generate(dev, next.repr, updated);
    }

    record_iteration(result.metrics, "pagerank",
                     {iteration, frontier.size(), variant},
                     t_iter, dev.mark());
    frontier.swap(updated);
    updated.clear();
    variant = next;
  }

  result.rank.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<float>(result.rank), rank);
  // Fold unconverged residual mass in (bounded by n * push_tolerance).
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    result.rank[v] += residual.host_view()[v];
  }

  ws.release(dev);
  dev.free(rank);
  dev.free(residual);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
