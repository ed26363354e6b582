// GPU connected components — the first "other graph algorithm" the paper
// projects its framework onto ("we believe that our analysis can be extended
// to many other graph algorithms, which can be expressed as a sequence of
// iterative steps, each step processing a set of elements").
//
// Algorithm: unordered min-label propagation. Every node starts in the
// working set with its own id as label; each iteration pushes labels along
// edges with atomic min, and nodes whose label dropped re-enter the working
// set. Converges in O(component diameter) iterations. The same two-kernel
// framework, dual working set, mapping granularities (including the
// warp-centric extension) and adaptive selection apply unchanged.
//
// The input graph must be symmetric (both arcs stored) for the result to be
// the weakly-connected components; use graph::symmetrize() otherwise.
#pragma once

#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "graph/csr.h"
#include "simt/device.h"

namespace gg {

struct GpuCcResult {
  // component[v] = smallest node id in v's component.
  std::vector<std::uint32_t> component;
  std::uint32_t num_components = 0;
  TraversalMetrics metrics;
};

// Ordering is ignored (label propagation is inherently unordered); mapping
// and representation follow the selector per decision point. `persistent`
// as for run_bfs (bfs_engine.h).
GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts = {},
                   const PersistentBound& persistent = {});

// Resident-graph form (see bfs_engine.h): `dg` must have been uploaded from
// `g` (a symmetric graph); no upload is charged to the metrics.
GpuCcResult run_cc(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                   const VariantSelector& selector, const EngineOptions& opts = {},
                   const PersistentBound& persistent = {});

inline GpuCcResult run_cc(simt::Device& dev, const graph::Csr& g, Variant variant,
                          const EngineOptions& opts = {}) {
  return run_cc(dev, g, fixed_variant(variant), opts);
}

}  // namespace gg
