// GPU SSSP across the implementation space (paper Sec. IV/V, Fig. 5).
//
// Unordered (Bellman-Ford-like): the same two-kernel iteration framework as
// BFS, with relaxations performed through atomic min on the distance array.
//
// Ordered (Dijkstra-like): the working set holds <node, tentative-distance>
// candidates; every iteration finds the minimum tentative distance by GPU
// parallel reduction (Sec. V.B), settles the nodes at that distance, and
// relaxes their neighborhoods. With a bitmap working set the findmin/extract
// phases scan all n nodes; with a queue they scan the candidate compaction.
#pragma once

#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "graph/csr.h"
#include "simt/device.h"

namespace gg {

struct GpuSsspResult {
  std::vector<std::uint32_t> dist;  // graph::kInfinity where unreachable
  TraversalMetrics metrics;
};

// Dispatches on variant.ordering: the selector's ordering choice at iteration
// 0 fixes the algorithm; mapping/representation may change per decision
// point (unordered only — the ordered engine honors the initial variant).
// A non-zero `persistent` bound runs small-frontier U_B_QU push iterations
// of the unordered engine inside persistent kernels, and its init_kernel
// starts that engine with one init kernel (gpu_graph/persistent_run.h);
// hybrid CPU phases take precedence. The ordered engine ignores it.
GpuSsspResult run_sssp(simt::Device& dev, const graph::Csr& g, graph::NodeId source,
                       const VariantSelector& selector, const EngineOptions& opts = {},
                       const PersistentBound& persistent = {});

// Resident-graph form (see bfs_engine.h): `dg` must have been uploaded from
// `g` with weights; no upload is charged to the metrics.
GpuSsspResult run_sssp(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                       graph::NodeId source, const VariantSelector& selector,
                       const EngineOptions& opts = {},
                       const PersistentBound& persistent = {});

inline GpuSsspResult run_sssp(simt::Device& dev, const graph::Csr& g,
                              graph::NodeId source, Variant variant,
                              const EngineOptions& opts = {}) {
  return run_sssp(dev, g, source, fixed_variant(variant), opts);
}

}  // namespace gg
