// Fused multi-source traversals: one traversal answers up to 32 BFS or 32
// unordered SSSP queries over the same graph (the serving layer coalesces
// same-graph queries into one batch; cf. the MS-BFS technique of Then et
// al., "The More the Merrier: Efficient Multi-Source Graph Traversal").
// Both keep one 32-bit mask per node per array, bit s for search s, and an
// n x k matrix of answers, node-major: values[v * k + s].
//
// MS-BFS masks —
//   frontier_mask[v]  bit s set = search s processes v this iteration
//   visited_mask[v]   bit s set = search s has reached v
//   next_mask[v]      bit s set = search s reaches v next iteration
// The computation kernel propagates  new = frontier_mask[v] & ~visited[t]
// along every edge, so one pass over the frontier's adjacency serves every
// batched search that is at v — the source of the >= 2x modeled throughput
// over independent traversals. Because the batch advances in lockstep, every
// bit newly set at iteration i corresponds to a BFS distance of exactly i,
// which keeps the per-search levels identical to independent runs.
//
// Multi-source SSSP (frontier Bellman-Ford, push only) keeps one mask —
//   pending[v]        bit s set = dist[v][s] fell since v last relaxed it
// Expanding v reads its mask, which the last lane of v's group clears, and
// relaxes every out-edge for each pending source through atomic min on the
// matrix; a relaxation that lowers dist[t][s] sets bit s of pending[t] and
// admits t. Atomic min reaches the exact shortest distance for each source
// however the relaxations interleave, so the distances are identical to
// independent runs; a bit a node collects after it was consumed, or before
// it is expanded in the same iteration, only costs redundant relaxations.
//
// The working set (which nodes have any pending bit) reuses the dual
// bitmap/queue Workset, so the mapping x representation variants and the
// per-iteration selector apply exactly as in the single-source engines.
#pragma once

#include <span>
#include <vector>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "graph/csr.h"
#include "simt/device.h"

namespace gg {

// Mask width: one uint32 per node serves up to 32 concurrent searches.
inline constexpr std::uint32_t kMaxBatchedSources = 32;

struct GpuMultiResult {
  std::uint32_t num_sources = 0;
  // values[v * num_sources + s] = the BFS level or SSSP distance of node v
  // from sources[s] (graph::kInfinity where unreachable); identical to
  // num_sources independent runs.
  std::vector<std::uint32_t> values;
  TraversalMetrics metrics;

  std::span<const std::uint32_t> values_for(std::uint32_t v) const {
    return std::span<const std::uint32_t>(values).subspan(
        static_cast<std::size_t>(v) * num_sources, num_sources);
  }
};

// Resident-graph forms; 1 <= sources.size() <= kMaxBatchedSources (duplicate
// sources are allowed — their searches simply share trajectories).
// `persistent` as for run_bfs (bfs_engine.h); the sources are the init
// kernel's arguments. Both run push only, whatever direction the selector
// picks; SSSP needs a weighted `dg` and `g`.
GpuMultiResult run_bfs_multi(simt::Device& dev, DeviceGraph& dg,
                             const graph::Csr& g,
                             std::span<const graph::NodeId> sources,
                             const VariantSelector& selector,
                             const EngineOptions& opts = {},
                             const PersistentBound& persistent = {});
GpuMultiResult run_sssp_multi(simt::Device& dev, DeviceGraph& dg,
                              const graph::Csr& g,
                              std::span<const graph::NodeId> sources,
                              const VariantSelector& selector,
                              const EngineOptions& opts = {},
                              const PersistentBound& persistent = {});

// Convenience forms that upload/release the graph around the traversal.
GpuMultiResult run_bfs_multi(simt::Device& dev, const graph::Csr& g,
                             std::span<const graph::NodeId> sources,
                             const VariantSelector& selector,
                             const EngineOptions& opts = {},
                             const PersistentBound& persistent = {});
GpuMultiResult run_sssp_multi(simt::Device& dev, const graph::Csr& g,
                              std::span<const graph::NodeId> sources,
                              const VariantSelector& selector,
                              const EngineOptions& opts = {},
                              const PersistentBound& persistent = {});

}  // namespace gg
