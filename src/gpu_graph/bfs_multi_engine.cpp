#include "gpu_graph/bfs_multi_engine.h"

#include <algorithm>
#include <bit>

#include "gpu_graph/frontier_launch.h"

namespace gg {
namespace {

// Static access sites of the fused computation kernel.
constexpr simt::Site kFrontierMask{0, "msbfs.frontier-mask"};
constexpr simt::Site kRowOffsets{1, "msbfs.row-offsets"};
constexpr simt::Site kNodeOps{2, "msbfs.node-ops"};
constexpr simt::Site kEdgeLoad{3, "msbfs.edge-load"};
constexpr simt::Site kEdgeOps{4, "msbfs.edge-ops"};
constexpr simt::Site kVisited{5, "msbfs.visited"};
constexpr simt::Site kNextMask{6, "msbfs.next-mask"};
constexpr simt::Site kLevelStore{7, "msbfs.level-store"};
constexpr simt::Site kUpdateLoad{8, "msbfs.update-load"};
constexpr simt::Site kUpdateStore{9, "msbfs.update-store"};
constexpr simt::Site kQueueLoad{10, "msbfs.queue-load"};
constexpr simt::Site kBitmapClear{11, "msbfs.bitmap-clear"};
constexpr simt::Site kBitOps{12, "msbfs.bit-ops"};

constexpr FrontierKernels kCompute{
    "msbfs.compute.T_BM", "msbfs.compute.T_QU", "msbfs.compute.B_BM",
    "msbfs.compute.B_QU", "msbfs.compute.W_BM", "msbfs.compute.W_QU",
    kQueueLoad,           kBitmapClear,         kUpdateLoad,
    kUpdateStore};
using Loop = FrontierLoop<kCompute>;

struct MultiEngine {
  simt::DeviceBuffer<std::uint32_t>& frontier_mask;
  simt::DeviceBuffer<std::uint32_t>& visited;
  simt::DeviceBuffer<std::uint32_t>& next_mask;
  simt::DeviceBuffer<std::uint32_t>& levels;  // n * k
  const DeviceGraph& dg;
  std::uint32_t k = 0;      // batch width
  std::uint32_t depth = 0;  // current iteration = level being set

  void before_compute(Loop& loop) { depth = loop.iteration; }

  // Shared per-element body (cf. bfs_engine.cpp): the caller chooses
  // adjacency partitioning per mapping. Mask buffers are never cleared: a
  // stale bit is, by construction, one the node already expanded the last
  // time it sat in the working set, so every neighbor's visited word
  // already contains it and `fresh` masks it out. Frontier membership comes
  // from the workset, not from the mask words.
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kCompute>& push) {
    const std::uint32_t fm = ctx.load(frontier_mask, id, kFrontierMask);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      ctx.compute(3, kEdgeOps);
      const std::uint32_t vis = ctx.load(visited, t, kVisited);
      std::uint32_t fresh = fm & ~vis;
      if (fresh == 0) continue;
      // Blocks run in block order on one host thread, so the
      // read-modify-write pair models atomicOr's cost without needing one.
      ctx.store(visited, t, vis | fresh, kVisited);
      const std::uint32_t nm = ctx.load(next_mask, t, kNextMask);
      ctx.store(next_mask, t, nm | fresh, kNextMask);
      // One level store per search that just reached t; lockstep advance
      // makes the level exactly the current depth for every fresh bit.
      while (fresh != 0) {
        const auto s = static_cast<std::uint32_t>(std::countr_zero(fresh));
        ctx.compute(3, kBitOps);  // ctz + clear-lowest + index arithmetic
        ctx.store(levels, static_cast<std::size_t>(t) * k + s, depth,
                  kLevelStore);
        fresh &= fresh - 1;
      }
      push.mark(t);
    }
  }

  // The old frontier buffer becomes next iteration's accumulation target;
  // its stale bits are harmless (see element).
  void after_compute(Loop&) { std::swap(frontier_mask, next_mask); }
};

}  // namespace

GpuBfsMultiResult run_bfs_multi(simt::Device& dev, const graph::Csr& g,
                                std::span<const graph::NodeId> sources,
                                const VariantSelector& selector,
                                const EngineOptions& opts,
                                const PersistentBound& persistent) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_bfs_multi(dev, dg, g, sources, selector,
                                             opts, persistent);
                      });
}

GpuBfsMultiResult run_bfs_multi(simt::Device& dev, DeviceGraph& dg,
                                const graph::Csr& g,
                                std::span<const graph::NodeId> sources,
                                const VariantSelector& selector,
                                const EngineOptions& opts,
                                const PersistentBound& persistent) {
  AGG_CHECK_MSG(!sources.empty() && sources.size() <= kMaxBatchedSources,
                "batch of 1..32 sources required");
  for (const graph::NodeId s : sources) AGG_CHECK(s < g.num_nodes);
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuBfsMultiResult result;
  const auto k = static_cast<std::uint32_t>(sources.size());
  result.num_sources = k;

  auto frontier_mask = dev.alloc<std::uint32_t>(g.num_nodes, "msbfs.frontier_mask");
  auto visited = dev.alloc<std::uint32_t>(g.num_nodes, "msbfs.visited");
  auto next_mask = dev.alloc<std::uint32_t>(g.num_nodes, "msbfs.next_mask");
  auto levels =
      dev.alloc<std::uint32_t>(static_cast<std::size_t>(g.num_nodes) * k,
                               "msbfs.levels");
  InitKernel init(dev, persistent, /*hybrid=*/false, "msbfs.init", k);
  dev.fill(frontier_mask, 0u);
  dev.fill(visited, 0u);
  dev.fill(next_mask, 0u);
  dev.fill(levels, graph::kInfinity);
  Loop loop(dev, g, dg, opts, result.metrics);

  // Seed: distinct source nodes form the initial frontier; a node hosting
  // several batched sources simply starts with several bits.
  std::vector<std::uint32_t> seeds;
  for (std::uint32_t s = 0; s < k; ++s) {
    const std::uint32_t v = sources[s];
    dev.seed_scalar(frontier_mask, v,
                    frontier_mask.host_view()[v] | (1u << s));
    dev.seed_scalar(visited, v, visited.host_view()[v] | (1u << s));
    dev.seed_scalar(levels, static_cast<std::size_t>(v) * k + s, 0u);
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }

  loop.sel.ws_size = seeds.size();
  loop.variant = selector(loop.sel);
  // Lockstep masks have no ordered form.
  loop.variant.ordering = Ordering::unordered;
  std::sort(seeds.begin(), seeds.end());
  for (const std::uint32_t v : seeds) {
    dev.seed_scalar(loop.ws.update(), v, std::uint8_t{1});
  }
  init.end();
  // Materialize the initial working set in `variant.repr` form through the
  // regular generation path.
  loop.seed(std::move(seeds));

  MultiEngine engine{frontier_mask, visited, next_mask, levels, dg, k};
  loop.run(engine, "msbfs", selector, 4ull * g.num_nodes + 64, persistent,
           "msbfs.persistent");

  // Download the full levels matrix (n x k) — the batch's entire answer.
  result.levels.resize(static_cast<std::size_t>(g.num_nodes) * k);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.levels), levels);

  loop.ws.release(dev);
  dev.free(frontier_mask);
  dev.free(visited);
  dev.free(next_mask);
  dev.free(levels);

  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
