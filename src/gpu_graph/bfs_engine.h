// GPU BFS across the full implementation space (paper Sec. IV/V, Figs. 4, 8,
// 9): level-synchronous traversal driven by the two-kernel iteration
// framework (CUDA_computation + CUDA_workset_gen), supporting all eight
// ordering x mapping x working-set variants, with an optional per-iteration
// variant selector for the adaptive runtime.
#pragma once

#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "graph/csr.h"
#include "simt/device.h"

namespace gg {

struct GpuBfsResult {
  std::vector<std::uint32_t> level;  // graph::kInfinity where unreachable
  TraversalMetrics metrics;
};

// The selector is consulted at decision points (see
// EngineOptions::monitor_interval); between decision points the previous
// variant keeps running. Ordered and unordered BFS differ in the visited
// check (Fig. 4 line 8 vs 8'); both are level-synchronous. A non-zero
// `persistent` bound runs small-frontier U_B_QU push iterations inside
// persistent kernels, and its init_kernel starts the traversal with one
// init kernel (gpu_graph/persistent_run.h); hybrid CPU phases, when
// enabled, take precedence and keep one launch per kernel.
GpuBfsResult run_bfs(simt::Device& dev, const graph::Csr& g, graph::NodeId source,
                     const VariantSelector& selector, const EngineOptions& opts = {},
                     const PersistentBound& persistent = {});

// Resident-graph form: the caller owns an already-uploaded DeviceGraph (the
// serving layer keeps registered graphs resident across queries), so the
// metrics cover only the traversal itself — no upload is charged. `dg` must
// have been uploaded from `g` on `dev`.
GpuBfsResult run_bfs(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                     graph::NodeId source, const VariantSelector& selector,
                     const EngineOptions& opts = {},
                     const PersistentBound& persistent = {});

inline GpuBfsResult run_bfs(simt::Device& dev, const graph::Csr& g,
                            graph::NodeId source, Variant variant,
                            const EngineOptions& opts = {}) {
  return run_bfs(dev, g, source, fixed_variant(variant), opts);
}

}  // namespace gg
