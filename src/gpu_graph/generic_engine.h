// Generic frontier engine: the paper's reusable "algorithm pattern"
// (Sec. II: "we provide to the user a graph API including some algorithm
// patterns that can be reused in the context of more complex applications").
//
// A user algorithm supplies a per-element operator; run_frontier runs it on
// gg::FrontierLoop (gpu_graph/frontier_launch.h), the loop every built-in
// frontier engine runs on — the two-kernel iteration framework, the dual
// bitmap/queue working set, adaptive variant selection, monitoring, and
// metrics — so the operator runs in exactly the thread/block/warp x
// bitmap/queue shapes of the built-in engines.
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
// (deduplicated through the shared update vector), the same handle the
// built-in engines' push bodies admit nodes through.
#pragma once

#include <type_traits>
#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/frontier_launch.h"
#include "gpu_graph/metrics.h"

namespace gg {

namespace generic_detail {
inline constexpr simt::Site kUpdateLoad{14, "generic.update-load"};
inline constexpr simt::Site kUpdateStore{15, "generic.update-store"};
inline constexpr simt::Site kQueueLoad{16, "generic.queue-load"};
inline constexpr simt::Site kBitmapClear{17, "generic.bitmap-clear"};
inline constexpr FrontierKernels kKernels{
    "generic.T_BM", "generic.T_QU", "generic.B_BM",
    "generic.B_QU", "generic.W_BM", "generic.W_QU",
    kQueueLoad,     kBitmapClear,   kUpdateLoad,
    kUpdateStore};

template <typename Op>
struct OperatorEngine {
  Op& op;
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kKernels>& push) {
    op(ctx, id, offset, step, push);
  }
};
}  // namespace generic_detail

// Handle through which an operator admits nodes to the next working set.
using Push = FrontierPush<generic_detail::kKernels>;

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
  FrontierLoop<generic_detail::kKernels> loop(dev, g, dg, opts,
                                              result.metrics);
  loop.sel.ws_size = initial.size();
  loop.variant = selector(loop.sel);
  loop.variant.ordering = Ordering::unordered;
  loop.seed(std::move(initial));

  generic_detail::OperatorEngine<std::remove_reference_t<Op>> engine{op};
  loop.run(engine, "generic", selector, 64ull * g.num_nodes + 4096);

  loop.ws.release(dev);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
