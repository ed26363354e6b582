#include "gpu_graph/pagerank_engine.h"

#include <algorithm>
#include <numeric>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"

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

constexpr FrontierKernels kCompute{
    "pr.compute.T_BM", "pr.compute.T_QU", "pr.compute.B_BM",
    "pr.compute.B_QU", "pr.compute.W_BM", "pr.compute.W_QU",
    kQueueLoad,        kBitmapClear,      kUpdateLoad,
    kUpdateStore};
using Loop = FrontierLoop<kCompute>;

struct PrEngine {
  simt::DeviceBuffer<float>& rank;
  simt::DeviceBuffer<float>& residual;
  const DeviceGraph& dg;
  // Residuals of the frontier as of kernel launch, indexed by node id. On
  // real hardware every lane of an element's warp reads r[id] in lockstep
  // before the owner clears it; the sequential lane emulation reproduces
  // that by snapshotting at launch. Pushes that land on a frontier node
  // *during* the kernel stay in its residual for the next round.
  std::vector<float> snapshot;
  float damping;
  float push_tolerance;

  void before_compute(Loop& loop) {
    for (const std::uint32_t v : loop.frontier) {
      snapshot[v] = residual.host_view()[v];
    }
  }

  // Folds the node's residual into its rank and pushes damped shares. The
  // residual is consumed by the element's *owner* lane (thread mapping) or
  // lane 0 (block/warp mapping); pushes are strided like the other engines.
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kCompute>& push) {
    const float now = ctx.load(residual, id, kResidual);
    const float res = snapshot[id];  // lockstep read-before-clear value
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(6, kNodeOps);
    if (offset == 0) {
      // Claim the snapshot residual: fold into the rank, leave any mass that
      // arrived during this kernel for the next round.
      const float r = ctx.load(rank, id, kRankStore);
      ctx.store(rank, id, r + res, kRankStore);
      ctx.store(residual, id, now - res, kResidual);
    }
    const std::uint32_t deg = end - begin;
    if (deg == 0) return;  // dangling: mass absorbed
    const float share = damping * res / static_cast<float>(deg);

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(3, kEdgeOps);
      const float before = ctx.atomic_add(residual, t, share, kPush);
      const float after = before + share;
      if (after >= push_tolerance) push.mark(t);
    }
  }
};

}  // namespace

GpuPageRankResult run_pagerank(simt::Device& dev, const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts,
                               const PersistentBound& persistent) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.engine.stream,
                      [&](DeviceGraph& dg) {
                        return run_pagerank(dev, dg, g, selector, opts,
                                            persistent);
                      });
}

GpuPageRankResult run_pagerank(simt::Device& dev, DeviceGraph& dg,
                               const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts,
                               const PersistentBound& persistent) {
  AGG_CHECK(g.num_nodes > 0);
  AGG_CHECK(opts.damping > 0.0 && opts.damping < 1.0);
  simt::StreamGuard sguard(dev, opts.engine.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuPageRankResult result;

  auto rank = dev.alloc<float>(g.num_nodes, "pr.rank");
  auto residual = dev.alloc<float>(g.num_nodes, "pr.residual");
  InitKernel init(dev, persistent, /*hybrid=*/false, "pr.init", 0);
  dev.fill(rank, 0.0f);
  dev.fill(residual,
           static_cast<float>((1.0 - opts.damping) / g.num_nodes));
  Loop loop(dev, g, dg, opts.engine, result.metrics);

  loop.sel.ws_size = g.num_nodes;
  loop.variant = selector(loop.sel);
  loop.variant.ordering = Ordering::unordered;
  init.end();
  std::vector<std::uint32_t> all(g.num_nodes);
  std::iota(all.begin(), all.end(), 0u);
  loop.seed(std::move(all));

  // The re-entry threshold scales with the per-node teleport mass so that
  // accuracy is independent of the graph size.
  PrEngine engine{rank,
                  residual,
                  dg,
                  std::vector<float>(g.num_nodes, 0.0f),
                  static_cast<float>(opts.damping),
                  static_cast<float>(opts.push_tolerance *
                                     (1.0 - opts.damping) / g.num_nodes)};
  loop.run(engine, "pagerank", selector, 64ull * g.num_nodes + 4096,
           persistent, "pr.persistent");

  result.rank.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<float>(result.rank), rank);
  // Fold unconverged residual mass in (bounded by n * push_tolerance).
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    result.rank[v] += residual.host_view()[v];
  }

  loop.ws.release(dev);
  dev.free(rank);
  dev.free(residual);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
