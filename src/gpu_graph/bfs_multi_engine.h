// Batched multi-source BFS: one fused level-synchronous traversal answers up
// to 32 BFS queries over the same graph (the serving layer coalesces
// same-graph BFS requests into one batch; cf. the MS-BFS technique of Then et
// al., "The More the Merrier: Efficient Multi-Source Graph Traversal").
//
// Mechanics: each node carries a 32-bit mask per array —
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
// The working set (which nodes have any pending bit) reuses the dual
// bitmap/queue Workset, so the mapping x representation variants and the
// per-iteration selector apply exactly as in the single-source engine.
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

struct GpuBfsMultiResult {
  std::uint32_t num_sources = 0;
  // levels[v * num_sources + s] = BFS level of node v from sources[s]
  // (graph::kInfinity where unreachable); identical to num_sources
  // independent BFS runs.
  std::vector<std::uint32_t> levels;
  TraversalMetrics metrics;

  std::span<const std::uint32_t> levels_for(std::uint32_t v) const {
    return std::span<const std::uint32_t>(levels).subspan(
        static_cast<std::size_t>(v) * num_sources, num_sources);
  }
};

// Resident-graph form; 1 <= sources.size() <= kMaxBatchedSources (duplicate
// sources are allowed — their searches simply share bits' trajectories).
// `persistent` as for run_bfs (bfs_engine.h); the sources are the init
// kernel's arguments.
GpuBfsMultiResult run_bfs_multi(simt::Device& dev, DeviceGraph& dg,
                                const graph::Csr& g,
                                std::span<const graph::NodeId> sources,
                                const VariantSelector& selector,
                                const EngineOptions& opts = {},
                                const PersistentBound& persistent = {});

// Convenience form that uploads/releases the graph around the traversal.
GpuBfsMultiResult run_bfs_multi(simt::Device& dev, const graph::Csr& g,
                                std::span<const graph::NodeId> sources,
                                const VariantSelector& selector,
                                const EngineOptions& opts = {},
                                const PersistentBound& persistent = {});

}  // namespace gg
