#include "gpu_graph/cc_engine.h"

#include <algorithm>
#include <numeric>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"
#include "gpu_graph/workset.h"
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

struct CcState {
  simt::DeviceBuffer<std::uint32_t>* label;
  DeviceGraph* graph;
  Workset* ws;
  std::vector<std::uint32_t>* updated;
};

void propagate_element(simt::ThreadCtx& ctx, CcState& st, std::uint32_t id,
                       std::uint32_t offset, std::uint32_t step) {
  const std::uint32_t c = ctx.load(*st.label, id, kNodeLabel);
  const std::uint32_t begin = ctx.load(st.graph->row_offsets, id, kRowOffsets);
  const std::uint32_t end = ctx.load(st.graph->row_offsets, id + 1, kRowOffsets);
  ctx.compute(4, kNodeOps);
  for (std::uint32_t e = begin + offset; e < end; e += step) {
    const std::uint32_t t = ctx.load(st.graph->col_indices, e, kEdgeLoad);
    ctx.compute(2, kEdgeOps);
    const std::uint32_t old = ctx.atomic_min(*st.label, t, c, kPropagate);
    if (c < old) {
      if (ctx.load(st.ws->update(), t, kUpdateLoad) == 0) {
        ctx.store(st.ws->update(), t, std::uint8_t{1}, kUpdateStore);
        st.updated->push_back(t);
      }
    }
  }
}

constexpr FrontierKernels kCompute{
    "cc.compute.T_BM", "cc.compute.T_QU", "cc.compute.B_BM",
    "cc.compute.B_QU", "cc.compute.W_BM", "cc.compute.W_QU",
    kQueueLoad, kBitmapClear};

// Pull (gather) label propagation, atomicMin-on-self style: CC requires a
// symmetric graph, so the in-neighbor (CSC) view *is* the resident CSR —
// the gather reads the same row_offsets/col_indices arrays and no separate
// CSC upload is needed. Each vertex folds the labels of its frontier
// neighbors into a register-local minimum and performs a single own-cell
// store if it improved; no inter-thread atomics.
void launch_cc_pull(simt::Device& dev, CcState& st, std::uint32_t thread_tpb) {
  const std::uint32_t n = st.graph->num_nodes;
  const auto grid = simt::GridSpec::dense(n, thread_tpb);
  simt::launch(dev, "cc.compute.T_PULL", grid, [&](simt::ThreadCtx& ctx) {
    const auto id = static_cast<std::uint32_t>(ctx.global_id());
    const std::uint32_t c = ctx.load(*st.label, id, kNodeLabel);
    const std::uint32_t begin = ctx.load(st.graph->row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(st.graph->row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);
    std::uint32_t best = c;
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t u = ctx.load(st.graph->col_indices, e, kEdgeLoad);
      ctx.compute(2, kEdgeOps);
      if (ctx.load(st.ws->bitmap(), u, kPullFrontierTest) == 0) continue;
      const std::uint32_t cu = ctx.load(*st.label, u, kNodeLabel);
      if (cu < best) best = cu;
    }
    if (best < c) {
      ctx.store(*st.label, id, best, kLabelStore);
      ctx.store(st.ws->update(), id, std::uint8_t{1}, kUpdateStore);
      st.updated->push_back(id);
    }
  });
}

}  // namespace

GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_cc(dev, dg, g, selector, opts);
                      });
}

GpuCcResult run_cc(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts) {
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuCcResult result;
  const std::uint32_t block_tpb =
      opts.block_tpb ? opts.block_tpb : derive_block_tpb(dg.avg_outdegree);

  // label[v] = v (device-side iota, charged as one uniform kernel).
  auto label = dev.alloc<std::uint32_t>(g.num_nodes, "cc.label");
  std::iota(label.host_view().begin(), label.host_view().end(), 0u);
  {
    simt::UniformThreadCost cost;
    cost.ops = 2;
    cost.mem_instrs = 1;
    cost.transactions_per_warp = simt::kWarpSize * 4 / dev.timing().segment_bytes;
    dev.account_kernel(simt::estimate_uniform_kernel(
        dev.props(), dev.timing(), "cc.init_labels", g.num_nodes, 256, cost));
  }
  Workset ws(dev, g.num_nodes, opts.scan_queue_gen);

  SelectorInput sel;
  sel.ws_size = g.num_nodes;  // every node starts active
  sel.avg_outdegree = dg.avg_outdegree;
  sel.outdeg_stddev = dg.outdeg_stddev;
  sel.num_nodes = g.num_nodes;
  sel.num_edges = dg.num_edges;
  // Every node starts in the working set, so every edge is frontier-adjacent
  // and the gather sweep has nothing extra to read (unexplored = m - fe = 0):
  // the direction controller sees a saturated frontier from iteration one and
  // starts CC in pull, flipping to push as the frontier drains.
  sel.frontier_edges = dg.num_edges;
  sel.unexplored_edges = 0;
  Variant variant = normalize_direction(selector(sel));
  variant.ordering = Ordering::unordered;

  // Initial working set = all nodes, produced by the generation kernel from
  // a fully-set update vector.
  std::vector<std::uint32_t> frontier(g.num_nodes);
  std::iota(frontier.begin(), frontier.end(), 0u);
  std::fill(ws.update().host_view().begin(), ws.update().host_view().end(),
            std::uint8_t{1});
  ws.generate(dev, variant.repr, frontier);

  std::vector<std::uint32_t> updated;
  CcState st{&label, &dg, &ws, &updated};

  const std::uint64_t max_iters =
      opts.max_iterations ? opts.max_iterations : 4ull * g.num_nodes + 64;

  std::uint32_t iteration = 0;
  while (!frontier.empty()) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= max_iters, "CC failed to converge");
    IterationClock t_iter{dev.mark()};

    if (variant.direction == Direction::pull) {
      launch_cc_pull(dev, st, opts.thread_tpb);
    } else {
      launch_frontier<kCompute>(
          dev, variant, ws, frontier, opts.thread_tpb, block_tpb,
          [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
              std::uint32_t step) {
            propagate_element(ctx, st, id, offset, step);
          });
    }
    for (const std::uint32_t v : frontier) {
      result.metrics.edges_processed += g.degree(v);
    }
    std::sort(updated.begin(), updated.end());

    ws.charge_termination_readback(dev);
    if (variant.direction == Direction::pull) {
      ws.clear_frontier_bitmap(dev, frontier);
    }

    std::uint64_t next_frontier_edges = 0;
    for (const std::uint32_t v : updated) next_frontier_edges += g.degree(v);

    Variant next = variant;
    if (opts.monitor_interval > 0 && iteration % opts.monitor_interval == 0) {
      if (variant.repr == WorksetRepr::bitmap) {
        ws.charge_bitmap_count_kernel(dev);
      }
      sel.iteration = iteration;
      sel.ws_size = updated.size();
      sel.frontier_edges = next_frontier_edges;
      // The CC gather folds over the resident (symmetric) CSR: edges whose
      // endpoint is not in the frontier cost only the bitmap membership test,
      // so the extra scan volume is whatever is not frontier-adjacent.
      sel.unexplored_edges = dg.num_edges - next_frontier_edges;
      sel.direction = variant.direction;
      ++result.metrics.decisions;
      next = normalize_direction(selector(sel));
      next.ordering = Ordering::unordered;
      if (next != variant) ++result.metrics.switches;
    }

    if (!updated.empty()) {
      ws.generate(dev, next.repr, updated);
    }

    record_iteration(result.metrics, "cc",
                     {iteration, frontier.size(), variant},
                     t_iter, dev.mark());
    frontier.swap(updated);
    updated.clear();
    variant = next;
  }

  result.component.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.component), label);
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    if (result.component[v] == v) ++result.num_components;
  }

  ws.release(dev);
  dev.free(label);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
