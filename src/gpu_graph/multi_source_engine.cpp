#include "gpu_graph/multi_source_engine.h"

#include <algorithm>
#include <array>
#include <bit>

#include "gpu_graph/frontier_launch.h"

namespace gg {
namespace {

// ---------------------------------------------------------------------------
// MS-BFS
// ---------------------------------------------------------------------------

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

constexpr FrontierKernels kBfsCompute{
    "msbfs.compute.T_BM", "msbfs.compute.T_QU", "msbfs.compute.B_BM",
    "msbfs.compute.B_QU", "msbfs.compute.W_BM", "msbfs.compute.W_QU",
    kQueueLoad,           kBitmapClear,         kUpdateLoad,
    kUpdateStore};

struct BfsEngine {
  simt::DeviceBuffer<std::uint32_t>& frontier_mask;
  simt::DeviceBuffer<std::uint32_t>& visited;
  simt::DeviceBuffer<std::uint32_t>& next_mask;
  simt::DeviceBuffer<std::uint32_t>& levels;  // n * k
  const DeviceGraph& dg;
  std::uint32_t k = 0;      // batch width
  std::uint32_t depth = 0;  // current iteration = level being set

  void before_compute(FrontierLoop<kBfsCompute>& loop) {
    depth = loop.iteration;
  }

  // Shared per-element body (cf. bfs_engine.cpp): the caller chooses
  // adjacency partitioning per mapping. Mask buffers are never cleared: a
  // stale bit is, by construction, one the node already expanded the last
  // time it sat in the working set, so every neighbor's visited word
  // already contains it and `fresh` masks it out. Frontier membership comes
  // from the workset, not from the mask words.
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kBfsCompute>& push) {
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
  void after_compute(FrontierLoop<kBfsCompute>&) {
    std::swap(frontier_mask, next_mask);
  }
};

// ---------------------------------------------------------------------------
// Multi-source unordered SSSP
// ---------------------------------------------------------------------------

constexpr simt::Site kPending{0, "mssp.pending"};
constexpr simt::Site kSsspRowOffsets{1, "mssp.row-offsets"};
constexpr simt::Site kSsspNodeOps{2, "mssp.node-ops"};
constexpr simt::Site kSsspEdgeLoad{3, "mssp.edge-load"};
constexpr simt::Site kWeightLoad{4, "mssp.weight-load"};
constexpr simt::Site kSsspEdgeOps{5, "mssp.edge-ops"};
constexpr simt::Site kNodeDist{6, "mssp.node-dist"};
constexpr simt::Site kRelax{7, "mssp.relax-atomic"};
constexpr simt::Site kTargetMask{8, "mssp.target-mask"};
constexpr simt::Site kSsspUpdateLoad{9, "mssp.update-load"};
constexpr simt::Site kSsspUpdateStore{10, "mssp.update-store"};
constexpr simt::Site kSsspQueueLoad{11, "mssp.queue-load"};
constexpr simt::Site kSsspBitmapClear{12, "mssp.bitmap-clear"};
constexpr simt::Site kSsspBitOps{13, "mssp.bit-ops"};
constexpr simt::Site kPendingClear{14, "mssp.pending-clear"};

constexpr FrontierKernels kSsspCompute{
    "mssp.compute.T_BM", "mssp.compute.T_QU", "mssp.compute.B_BM",
    "mssp.compute.B_QU", "mssp.compute.W_BM", "mssp.compute.W_QU",
    kSsspQueueLoad,      kSsspBitmapClear,    kSsspUpdateLoad,
    kSsspUpdateStore};

struct SsspEngine {
  simt::DeviceBuffer<std::uint32_t>& pending;
  simt::DeviceBuffer<std::uint32_t>& dist;  // n * k
  const DeviceGraph& dg;
  std::uint32_t k = 0;  // batch width

  // Every mapping gives a node's group lanes offset 0..step-1, run in lane
  // order, and no relaxation from the node can lower its own distances, so
  // all lanes read the same mask and the last one consumes it.
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kSsspCompute>& push) {
    const std::uint32_t pm = ctx.load(pending, id, kPending);
    if (pm == 0) return;  // consumed earlier in this iteration
    if (offset + 1 == step) ctx.store(pending, id, 0u, kPendingClear);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kSsspRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kSsspRowOffsets);
    ctx.compute(4, kSsspNodeOps);
    if (begin + offset >= end) return;

    // The node's distance from each pending source, read once per lane.
    std::array<std::uint32_t, kMaxBatchedSources> d;
    const std::size_t row = static_cast<std::size_t>(id) * k;
    for (std::uint32_t bits = pm; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<std::uint32_t>(std::countr_zero(bits));
      d[s] = ctx.load(dist, row + s, kNodeDist);
    }
    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kSsspEdgeLoad);
      const std::uint32_t w = ctx.load(dg.weights, e, kWeightLoad);
      ctx.compute(3, kSsspEdgeOps);
      const std::size_t trow = static_cast<std::size_t>(t) * k;
      std::uint32_t lowered = 0;
      for (std::uint32_t bits = pm; bits != 0; bits &= bits - 1) {
        const auto s = static_cast<std::uint32_t>(std::countr_zero(bits));
        ctx.compute(3, kSsspBitOps);  // ctz + clear-lowest + add
        const std::uint32_t nd = d[s] + w;
        if (nd < ctx.atomic_min(dist, trow + s, nd, kRelax)) lowered |= 1u << s;
      }
      if (lowered == 0) continue;
      // Blocks run in block order on one host thread, so the
      // read-modify-write pair models atomicOr's cost without needing one.
      const std::uint32_t tm = ctx.load(pending, t, kTargetMask);
      ctx.store(pending, t, tm | lowered, kTargetMask);
      push.mark(t);
    }
  }
};

// ---------------------------------------------------------------------------
// The fused traversal both engines run
// ---------------------------------------------------------------------------

// What distinguishes the two fused traversals besides their engine.
template <std::size_t M>
struct Fused {
  const char* algo;        // labels the iterations and the convergence check
  const char* init;        // the init kernel
  const char* values;      // the n x k matrix's buffer
  const char* persistent;  // the persistent runs' kernel
  std::array<const char*, M> masks;  // the per-node mask buffers
  std::size_t seeded;                // masks [0, seeded) get the source bits
  std::uint64_t limit_per_node;      // default iteration limit: this x n + 64
};

// Allocates the masks and the n x k values (kInfinity, 0 at each source's
// own slot), seeds each source's bit into masks [0, seeded) of its node and
// the distinct source nodes into the working set, all under one init
// kernel; makes the first decision, runs the loop with the engine
// `make(masks, values, k)` builds, and downloads the matrix.
template <const FrontierKernels& kc, std::size_t M, typename Make>
GpuMultiResult run_fused(simt::Device& dev, DeviceGraph& dg,
                         const graph::Csr& g,
                         std::span<const graph::NodeId> sources,
                         const VariantSelector& selector,
                         const EngineOptions& opts,
                         const PersistentBound& persistent, const Fused<M>& f,
                         Make&& make) {
  AGG_CHECK_MSG(!sources.empty() && sources.size() <= kMaxBatchedSources,
                "batch of 1..32 sources required");
  for (const graph::NodeId s : sources) AGG_CHECK(s < g.num_nodes);
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuMultiResult result;
  const auto k = static_cast<std::uint32_t>(sources.size());
  result.num_sources = k;

  std::array<simt::DeviceBuffer<std::uint32_t>, M> masks;
  for (std::size_t i = 0; i < M; ++i) {
    masks[i] = dev.alloc<std::uint32_t>(g.num_nodes, f.masks[i]);
  }
  auto values = dev.alloc<std::uint32_t>(
      static_cast<std::size_t>(g.num_nodes) * k, f.values);
  InitKernel init(dev, persistent, /*hybrid=*/false, f.init, k);
  for (auto& mask : masks) dev.fill(mask, 0u);
  dev.fill(values, graph::kInfinity);
  FrontierLoop<kc> loop(dev, g, dg, opts, result.metrics);

  // Seed: distinct source nodes form the initial frontier; a node hosting
  // several batched sources simply starts with several bits.
  std::vector<std::uint32_t> seeds;
  for (std::uint32_t s = 0; s < k; ++s) {
    const std::uint32_t v = sources[s];
    for (std::size_t i = 0; i < f.seeded; ++i) {
      dev.seed_scalar(masks[i], v, masks[i].host_view()[v] | (1u << s));
    }
    dev.seed_scalar(values, static_cast<std::size_t>(v) * k + s, 0u);
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }

  loop.sel.ws_size = seeds.size();
  loop.variant = selector(loop.sel);
  // Masks have no ordered form.
  loop.variant.ordering = Ordering::unordered;
  std::sort(seeds.begin(), seeds.end());
  for (const std::uint32_t v : seeds) {
    dev.seed_scalar(loop.ws.update(), v, std::uint8_t{1});
  }
  init.end();
  // Materialize the initial working set in `variant.repr` form through the
  // regular generation path.
  loop.seed(std::move(seeds));

  auto engine = make(masks, values, k);
  loop.run(engine, f.algo, selector, f.limit_per_node * g.num_nodes + 64,
           persistent, f.persistent);

  // Download the full n x k matrix — the batch's entire answer.
  result.values.resize(static_cast<std::size_t>(g.num_nodes) * k);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.values), values);

  loop.ws.release(dev);
  for (auto& mask : masks) dev.free(mask);
  dev.free(values);

  end_traversal(result.metrics, dev, t_begin);
  return result;
}

constexpr Fused<3> kBfs{
    "msbfs", "msbfs.init", "msbfs.levels", "msbfs.persistent",
    {"msbfs.frontier_mask", "msbfs.visited", "msbfs.next_mask"},
    /*seeded=*/2, /*limit_per_node=*/4};

constexpr Fused<1> kSssp{"mssp",           "mssp.init",
                         "mssp.dist",      "mssp.persistent",
                         {"mssp.pending"}, /*seeded=*/1,
                         /*limit_per_node=*/16};

}  // namespace

GpuMultiResult run_bfs_multi(simt::Device& dev, const graph::Csr& g,
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

GpuMultiResult run_sssp_multi(simt::Device& dev, const graph::Csr& g,
                              std::span<const graph::NodeId> sources,
                              const VariantSelector& selector,
                              const EngineOptions& opts,
                              const PersistentBound& persistent) {
  AGG_CHECK_MSG(g.has_weights(), "SSSP requires edge weights");
  return run_one_shot(dev, g, /*with_weights=*/true, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_sssp_multi(dev, dg, g, sources, selector,
                                              opts, persistent);
                      });
}

GpuMultiResult run_bfs_multi(simt::Device& dev, DeviceGraph& dg,
                             const graph::Csr& g,
                             std::span<const graph::NodeId> sources,
                             const VariantSelector& selector,
                             const EngineOptions& opts,
                             const PersistentBound& persistent) {
  return run_fused<kBfsCompute>(
      dev, dg, g, sources, selector, opts, persistent, kBfs,
      [&](auto& masks, auto& levels, std::uint32_t k) {
        return BfsEngine{masks[0], masks[1], masks[2], levels, dg, k};
      });
}

GpuMultiResult run_sssp_multi(simt::Device& dev, DeviceGraph& dg,
                              const graph::Csr& g,
                              std::span<const graph::NodeId> sources,
                              const VariantSelector& selector,
                              const EngineOptions& opts,
                              const PersistentBound& persistent) {
  AGG_CHECK_MSG(g.has_weights() && dg.weights.valid(),
                "SSSP requires edge weights");
  return run_fused<kSsspCompute>(
      dev, dg, g, sources, selector, opts, persistent, kSssp,
      [&](auto& masks, auto& dist, std::uint32_t k) {
        return SsspEngine{masks[0], dist, dg, k};
      });
}

}  // namespace gg
