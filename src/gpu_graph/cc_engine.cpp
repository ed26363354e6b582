#include "gpu_graph/cc_engine.h"

#include <algorithm>
#include <numeric>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"
#include "simt/launch.h"

namespace gg {
namespace {

constexpr simt::Site kNodeLabel{0, "cc.node-label"};
constexpr simt::Site kRowOffsets{1, "cc.row-offsets"};
constexpr simt::Site kNodeOps{2, "cc.node-ops"};
constexpr simt::Site kEdgeLoad{3, "cc.edge-load"};
constexpr simt::Site kEdgeOps{4, "cc.edge-ops"};
constexpr simt::Site kPropagate{5, "cc.propagate-atomic"};
constexpr simt::Site kUpdateLoad{6, "cc.update-load"};
constexpr simt::Site kUpdateStore{7, "cc.update-store"};
constexpr simt::Site kQueueLoad{8, "cc.queue-load"};
constexpr simt::Site kBitmapClear{9, "cc.bitmap-clear"};
constexpr simt::Site kPullFrontierTest{10, "cc.pull-frontier-test"};
constexpr simt::Site kLabelStore{11, "cc.label-store"};

constexpr FrontierKernels kCompute{
    "cc.compute.T_BM", "cc.compute.T_QU", "cc.compute.B_BM",
    "cc.compute.B_QU", "cc.compute.W_BM", "cc.compute.W_QU",
    kQueueLoad,        kBitmapClear,      kUpdateLoad,
    kUpdateStore};
using Loop = FrontierLoop<kCompute>;

struct CcEngine {
  simt::DeviceBuffer<std::uint32_t>& label;
  const DeviceGraph& dg;

  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kCompute>& push) {
    const std::uint32_t c = ctx.load(label, id, kNodeLabel);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);
    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(2, kEdgeOps);
      const std::uint32_t old = ctx.atomic_min(label, t, c, kPropagate);
      if (c < old) push.mark(t);
    }
  }

  // Pull (gather) label propagation, atomicMin-on-self style: CC requires a
  // symmetric graph, so the in-neighbor (CSC) view *is* the resident CSR —
  // the gather reads the same row_offsets/col_indices arrays and no
  // separate CSC upload is needed. Each vertex folds the labels of its
  // frontier neighbors into a register-local minimum and performs a single
  // own-cell store if it improved; no inter-thread atomics.
  void pull(Loop& loop) {
    const auto grid = simt::GridSpec::dense(dg.num_nodes, loop.opts.thread_tpb);
    simt::launch(loop.dev, "cc.compute.T_PULL", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t c = ctx.load(label, id, kNodeLabel);
      const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
      const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
      ctx.compute(4, kNodeOps);
      std::uint32_t best = c;
      for (std::uint32_t e = begin; e < end; ++e) {
        const std::uint32_t u = ctx.load(dg.col_indices, e, kEdgeLoad);
        ctx.compute(2, kEdgeOps);
        if (ctx.load(loop.ws.bitmap(), u, kPullFrontierTest) == 0) continue;
        const std::uint32_t cu = ctx.load(label, u, kNodeLabel);
        if (cu < best) best = cu;
      }
      if (best < c) {
        ctx.store(label, id, best, kLabelStore);
        ctx.store(loop.ws.update(), id, std::uint8_t{1}, kUpdateStore);
        loop.updated.push_back(id);
      }
    });
  }

  // The CC gather folds over the resident (symmetric) CSR: edges whose
  // endpoint is not in the frontier cost only the bitmap membership test,
  // so the extra scan volume is whatever is not frontier-adjacent.
  void inputs(SelectorInput& sel) const {
    sel.unexplored_edges = dg.num_edges - sel.frontier_edges;
  }
};

}  // namespace

GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts,
                   const PersistentBound& persistent) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_cc(dev, dg, g, selector, opts, persistent);
                      });
}

GpuCcResult run_cc(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts,
                   const PersistentBound& persistent) {
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuCcResult result;

  // label[v] = v (device-side iota, charged as one uniform kernel).
  auto label = dev.alloc<std::uint32_t>(g.num_nodes, "cc.label");
  InitKernel init(dev, persistent, /*hybrid=*/false, "cc.init", 0);
  std::iota(label.host_view().begin(), label.host_view().end(), 0u);
  {
    simt::UniformThreadCost cost;
    cost.ops = 2;
    cost.mem_instrs = 1;
    cost.transactions_per_warp = simt::kWarpSize * 4 / dev.timing().segment_bytes;
    dev.account_kernel(simt::estimate_uniform_kernel(
        dev.props(), dev.timing(), "cc.init_labels", g.num_nodes, 256, cost));
  }
  Loop loop(dev, g, dg, opts, result.metrics);

  loop.sel.ws_size = g.num_nodes;  // every node starts active
  loop.sel.num_edges = dg.num_edges;
  // Every node starts in the working set, so every edge is frontier-adjacent
  // and the gather sweep has nothing extra to read (unexplored = m - fe = 0):
  // the direction controller sees a saturated frontier from iteration one and
  // starts CC in pull, flipping to push as the frontier drains.
  loop.sel.frontier_edges = dg.num_edges;
  loop.sel.unexplored_edges = 0;
  loop.variant = normalize_direction(selector(loop.sel));
  loop.variant.ordering = Ordering::unordered;
  init.end();

  // Initial working set = all nodes, produced by the generation kernel from
  // a fully-set update vector.
  std::vector<std::uint32_t> all(g.num_nodes);
  std::iota(all.begin(), all.end(), 0u);
  loop.seed(std::move(all));

  CcEngine engine{label, dg};
  loop.run(engine, "cc", selector, 4ull * g.num_nodes + 64, persistent,
           "cc.persistent");

  result.component.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.component), label);
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    if (result.component[v] == v) ++result.num_components;
  }

  loop.ws.release(dev);
  dev.free(label);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
