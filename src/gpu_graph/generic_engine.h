// Generic frontier engine: the paper's reusable "algorithm pattern"
// (Sec. II: "we provide to the user a graph API including some algorithm
// patterns that can be reused in the context of more complex applications").
//
// A user algorithm supplies a per-element operator; the engine supplies
// everything the built-in algorithms share — the two-kernel iteration
// framework, the dual bitmap/queue working set, adaptive variant selection,
// monitoring, and metrics. The operator is launched through
// gg::launch_frontier (gpu_graph/frontier_launch.h), so it runs in exactly
// the thread/block/warp x bitmap/queue shapes of the built-in engines.
//
// The operator has the signature
//
//   void op(simt::ThreadCtx& ctx, std::uint32_t id,
//           std::uint32_t offset, std::uint32_t step, gg::Push& push);
//
// and must visit the element's adjacency as `for (e = begin+offset; e < end;
// e += step)` so every mapping granularity partitions the work correctly.
// Algorithm state lives in user-allocated DeviceBuffers accessed through
// `ctx` with user site ids 0..13 (14-17 are reserved by the engine).
// Calling `push.mark(t)` admits node t into the next working set
// (deduplicated through the shared update vector).
#pragma once

#include <algorithm>
#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/frontier_launch.h"
#include "gpu_graph/metrics.h"
#include "gpu_graph/workset.h"

namespace gg {

namespace generic_detail {
inline constexpr simt::Site kUpdateLoad{14, "generic.update-load"};
inline constexpr simt::Site kUpdateStore{15, "generic.update-store"};
inline constexpr simt::Site kQueueLoad{16, "generic.queue-load"};
inline constexpr simt::Site kBitmapClear{17, "generic.bitmap-clear"};
inline constexpr FrontierKernels kKernels{
    "generic.T_BM", "generic.T_QU", "generic.B_BM",
    "generic.B_QU", "generic.W_BM", "generic.W_QU",
    kQueueLoad, kBitmapClear};
}  // namespace generic_detail

// Handle through which an operator admits nodes to the next working set.
class Push {
 public:
  Push(simt::ThreadCtx& ctx, Workset& ws, std::vector<std::uint32_t>& updated)
      : ctx_(&ctx), ws_(&ws), updated_(&updated) {}

  void mark(std::uint32_t node) {
    if (ctx_->load(ws_->update(), node, generic_detail::kUpdateLoad) == 0) {
      ctx_->store(ws_->update(), node, std::uint8_t{1},
                  generic_detail::kUpdateStore);
      updated_->push_back(node);
    }
  }

 private:
  simt::ThreadCtx* ctx_;
  Workset* ws_;
  std::vector<std::uint32_t>* updated_;
};

struct GenericResult {
  TraversalMetrics metrics;
};

// Runs the operator to a fixpoint starting from `initial` (sorted, unique
// node ids). The DeviceGraph is supplied by the caller so the operator can
// capture it (and its own state buffers) directly.
template <typename Op>
GenericResult run_frontier(simt::Device& dev, const graph::Csr& g,
                           const DeviceGraph& dg,
                           std::vector<std::uint32_t> initial, Op&& op,
                           const VariantSelector& selector,
                           const EngineOptions& opts = {}) {
  const simt::StatsMark t_begin = dev.stats_mark();

  GenericResult result;
  const std::uint32_t block_tpb =
      opts.block_tpb ? opts.block_tpb : derive_block_tpb(dg.avg_outdegree);
  Workset ws(dev, g.num_nodes, opts.scan_queue_gen);

  SelectorInput sel;
  sel.ws_size = initial.size();
  sel.avg_outdegree = dg.avg_outdegree;
  sel.outdeg_stddev = dg.outdeg_stddev;
  sel.num_nodes = g.num_nodes;
  Variant variant = selector(sel);
  variant.ordering = Ordering::unordered;

  std::vector<std::uint32_t> frontier = std::move(initial);
  std::sort(frontier.begin(), frontier.end());
  for (const std::uint32_t v : frontier) ws.update().host_view()[v] = 1;
  ws.generate(dev, variant.repr, frontier);

  std::vector<std::uint32_t> updated;
  const std::uint64_t max_iters =
      opts.max_iterations ? opts.max_iterations : 64ull * g.num_nodes + 4096;

  std::uint32_t iteration = 0;
  while (!frontier.empty()) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= max_iters, "operator failed to converge");
    IterationClock t_iter{dev.mark()};

    launch_frontier<generic_detail::kKernels>(
        dev, variant, ws, frontier, opts.thread_tpb, block_tpb,
        [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
            std::uint32_t step) {
          Push push(ctx, ws, updated);
          op(ctx, id, offset, step, push);
        });
    for (const std::uint32_t v : frontier) {
      result.metrics.edges_processed += g.degree(v);
    }
    std::sort(updated.begin(), updated.end());
    ws.charge_termination_readback(dev);

    Variant next = variant;
    if (opts.monitor_interval > 0 && iteration % opts.monitor_interval == 0) {
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
    record_iteration(result.metrics, "generic",
                     {iteration, frontier.size(), variant},
                     t_iter, dev.mark());
    frontier.swap(updated);
    updated.clear();
    variant = next;
  }

  ws.release(dev);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
