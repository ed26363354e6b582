// GPU PageRank by residual push ("delta-push") — another instantiation of
// the paper's iterative working-set framework: each active node folds its
// residual into its rank and pushes damped shares to its out-neighbors;
// nodes whose residual crosses the tolerance re-enter the working set.
// Converges to the fixpoint of  p = (1-d)/n + d * M p  (dangling mass is
// absorbed, matching cpu::pagerank).
#pragma once

#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "graph/csr.h"
#include "simt/device.h"

namespace gg {

struct PageRankOptions {
  double damping = 0.85;
  // A node re-enters the working set while its residual exceeds
  // push_tolerance * (1-damping)/n (i.e. this is relative to the per-node
  // teleport mass, making accuracy independent of graph size).
  double push_tolerance = 1e-3;
  EngineOptions engine;
};

struct GpuPageRankResult {
  std::vector<float> rank;
  TraversalMetrics metrics;
};

// `persistent` as for run_bfs (bfs_engine.h).
GpuPageRankResult run_pagerank(simt::Device& dev, const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts = {},
                               const PersistentBound& persistent = {});

// Resident-graph form (see bfs_engine.h): `dg` must have been uploaded from
// `g`; no upload is charged to the metrics.
GpuPageRankResult run_pagerank(simt::Device& dev, DeviceGraph& dg,
                               const graph::Csr& g,
                               const VariantSelector& selector,
                               const PageRankOptions& opts = {},
                               const PersistentBound& persistent = {});

inline GpuPageRankResult run_pagerank(simt::Device& dev, const graph::Csr& g,
                                      Variant variant,
                                      const PageRankOptions& opts = {}) {
  return run_pagerank(dev, g, fixed_variant(variant), opts);
}

}  // namespace gg
