// Generic frontier engine: the paper's reusable "algorithm pattern"
// (Sec. II: "we provide to the user a graph API including some algorithm
// patterns that can be reused in the context of more complex applications").
//
// A user algorithm supplies a per-element operator; the engine supplies
// everything the built-in algorithms share — the two-kernel iteration
// framework, the dual bitmap/queue working set, the thread/block/warp
// mapping shapes, adaptive variant selection, monitoring, and metrics.
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
#include "gpu_graph/metrics.h"
#include "gpu_graph/workset.h"
#include "simt/launch.h"

namespace gg {

namespace generic_detail {
inline constexpr simt::Site kUpdateLoad{14, "generic.update-load"};
inline constexpr simt::Site kUpdateStore{15, "generic.update-store"};
inline constexpr simt::Site kQueueLoad{16, "generic.queue-load"};
inline constexpr simt::Site kBitmapClear{17, "generic.bitmap-clear"};
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
  namespace gd = generic_detail;
  const simt::StatsMark t_begin = dev.stats_mark();

  GenericResult result;
  const std::uint32_t block_tpb =
      opts.block_tpb ? opts.block_tpb : derive_block_tpb(dg.avg_outdegree);
  Workset ws(dev, g.num_nodes);

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
  ws.generate(dev, variant.repr, frontier,
              opts.scan_queue_gen ? Workset::GenMethod::scan
                                  : Workset::GenMethod::atomic);

  std::vector<std::uint32_t> updated;
  const std::uint64_t max_iters =
      opts.max_iterations ? opts.max_iterations : 64ull * g.num_nodes + 4096;

  // One launch of the computation kernel under the current variant.
  auto launch_op = [&](Variant v) {
    simt::Predicate pred;
    pred.base_addr = ws.bitmap().base_addr();
    pred.stride = 1;
    pred.ops = 2;
    const std::uint32_t n = g.num_nodes;

    auto body = [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
                    std::uint32_t step) {
      Push push(ctx, ws, updated);
      op(ctx, id, offset, step, push);
    };

    switch (v.mapping) {
      case Mapping::thread:
        if (v.repr == WorksetRepr::bitmap) {
          simt::launch(dev, "generic.T_BM",
                       simt::GridSpec::over_threads(n, opts.thread_tpb, frontier, pred),
                       [&](simt::ThreadCtx& ctx) {
                         const auto id = static_cast<std::uint32_t>(ctx.global_id());
                         ctx.store(ws.bitmap(), id, std::uint8_t{0}, gd::kBitmapClear);
                         body(ctx, id, 0, 1);
                       });
        } else {
          simt::launch(dev, "generic.T_QU",
                       simt::GridSpec::dense(frontier.size(), opts.thread_tpb),
                       [&](simt::ThreadCtx& ctx) {
                         const std::uint32_t id =
                             ctx.load(ws.queue(), ctx.global_id(), gd::kQueueLoad);
                         body(ctx, id, 0, 1);
                       });
        }
        break;
      case Mapping::block:
        if (v.repr == WorksetRepr::bitmap) {
          simt::launch(dev, "generic.B_BM",
                       simt::GridSpec::over_blocks(n, block_tpb, frontier, pred),
                       [&](simt::ThreadCtx& ctx) {
                         const auto id = static_cast<std::uint32_t>(ctx.block_idx());
                         if (ctx.thread_in_block() == 0) {
                           ctx.store(ws.bitmap(), id, std::uint8_t{0}, gd::kBitmapClear);
                         }
                         body(ctx, id, ctx.thread_in_block(), ctx.block_dim());
                       });
        } else {
          simt::launch(dev, "generic.B_QU",
                       simt::GridSpec::dense(frontier.size() * block_tpb, block_tpb),
                       [&](simt::ThreadCtx& ctx) {
                         const std::uint32_t id =
                             ctx.load(ws.queue(), ctx.block_idx(), gd::kQueueLoad);
                         body(ctx, id, ctx.thread_in_block(), ctx.block_dim());
                       });
        }
        break;
      case Mapping::warp:
        if (v.repr == WorksetRepr::bitmap) {
          simt::launch(dev, "generic.W_BM",
                       simt::GridSpec::over_blocks(n, simt::kWarpSize, frontier, pred),
                       [&](simt::ThreadCtx& ctx) {
                         const auto id = static_cast<std::uint32_t>(ctx.block_idx());
                         if (ctx.thread_in_block() == 0) {
                           ctx.store(ws.bitmap(), id, std::uint8_t{0}, gd::kBitmapClear);
                         }
                         body(ctx, id, ctx.thread_in_block(), simt::kWarpSize);
                       });
        } else {
          simt::launch(dev, "generic.W_QU",
                       simt::GridSpec::dense(frontier.size() * simt::kWarpSize,
                                             opts.thread_tpb),
                       [&](simt::ThreadCtx& ctx) {
                         const auto wid = static_cast<std::uint32_t>(
                             ctx.global_id() / simt::kWarpSize);
                         const std::uint32_t id =
                             ctx.load(ws.queue(), wid, gd::kQueueLoad);
                         body(ctx, id,
                              static_cast<std::uint32_t>(ctx.global_id() %
                                                         simt::kWarpSize),
                              simt::kWarpSize);
                       });
        }
        break;
    }
  };

  std::uint32_t iteration = 0;
  while (!frontier.empty()) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= max_iters, "operator failed to converge");
    IterationClock t_iter{dev.mark()};

    launch_op(variant);
    for (const std::uint32_t v : frontier) {
      result.metrics.edges_processed += g.degree(v);
    }
    std::sort(updated.begin(), updated.end());

    if (variant.repr == WorksetRepr::queue) {
      ws.charge_queue_len_readback(dev);
    } else {
      ws.charge_changed_flag_readback(dev);
    }

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
      ws.generate(dev, next.repr, updated,
                  opts.scan_queue_gen ? Workset::GenMethod::scan
                                      : Workset::GenMethod::atomic);
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
