#include "gpu_graph/sssp_engine.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"
#include "simt/launch.h"
#include "simt/primitives.h"

namespace gg {
namespace {

constexpr simt::Site kNodeDist{0, "sssp.node-dist"};
constexpr simt::Site kRowOffsets{1, "sssp.row-offsets"};
constexpr simt::Site kNodeOps{2, "sssp.node-ops"};
constexpr simt::Site kEdgeLoad{3, "sssp.edge-load"};
constexpr simt::Site kWeightLoad{4, "sssp.weight-load"};
constexpr simt::Site kEdgeOps{5, "sssp.edge-ops"};
constexpr simt::Site kRelax{6, "sssp.relax-atomic"};
constexpr simt::Site kUpdateLoad{7, "sssp.update-load"};
constexpr simt::Site kUpdateStore{8, "sssp.update-store"};
constexpr simt::Site kQueueLoad{9, "sssp.queue-load"};
constexpr simt::Site kBitmapClear{10, "sssp.bitmap-clear"};
constexpr simt::Site kTentLoad{11, "sssp.tent-load"};
constexpr simt::Site kDistStore{12, "sssp.dist-store"};
constexpr simt::Site kCandFlag{13, "sssp.cand-flag"};
constexpr simt::Site kCandTail{14, "sssp.cand-tail"};
constexpr simt::Site kPullRowOffsets{15, "sssp.pull-row-offsets"};
constexpr simt::Site kPullEdgeLoad{16, "sssp.pull-edge-load"};
constexpr simt::Site kPullWeightLoad{17, "sssp.pull-weight-load"};
constexpr simt::Site kPullFrontierTest{18, "sssp.pull-frontier-test"};

constexpr FrontierKernels kCompute{
    "sssp.compute.T_BM", "sssp.compute.T_QU", "sssp.compute.B_BM",
    "sssp.compute.B_QU", "sssp.compute.W_BM", "sssp.compute.W_QU",
    kQueueLoad,          kBitmapClear,        kUpdateLoad,
    kUpdateStore};
using Loop = FrontierLoop<kCompute>;

struct UnorderedEngine {
  simt::DeviceBuffer<std::uint32_t>& dist;
  DeviceGraph& dg;
  const graph::Csr& g;
  const EngineOptions& opts;
  std::optional<graph::Csr> csc_scratch;

  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kCompute>& push) {
    const std::uint32_t d = ctx.load(dist, id, kNodeDist);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);

    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      const std::uint32_t w = ctx.load(dg.weights, e, kWeightLoad);
      ctx.compute(3, kEdgeOps);
      const std::uint32_t nd = d + w;
      const std::uint32_t old = ctx.atomic_min(dist, t, nd, kRelax);
      if (nd < old) push.mark(t);
    }
  }

  // Serial host relaxation of a small frontier (hybrid execution,
  // cf. Hong et al. [13]).
  void host(Loop& loop) {
    auto dist_view = dist.host_view();
    for (const std::uint32_t v : loop.frontier) {
      const std::uint32_t dv = dist_view[v];
      const auto nbrs = g.neighbors(v);
      const auto wts = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const std::uint32_t nd = dv + wts[i];
        if (nd < dist_view[nbrs[i]]) {
          dist_view[nbrs[i]] = nd;
          loop.admit(nbrs[i]);
        }
      }
    }
  }

  // Pull (gather) relaxation in the style of the sssp_pull-topological
  // exemplar: a dense thread-per-vertex kernel where each vertex scans its
  // in-edges (CSC), filters frontier members through the bitmap, folds the
  // candidate distances into a register-local minimum, and performs a
  // single own-cell store if it improved — "atomicMin on self": no
  // inter-thread atomics on the scatter side, and the in-edge reads are
  // coalesced gathers. Blocks run in block order on one host thread, so
  // improved ids are push_backed into the host updated shadow.
  void pull(Loop& loop) {
    ensure_csc_resident(loop.dev, dg, g, opts.csc, /*with_weights=*/true,
                        csc_scratch);
    const auto grid = simt::GridSpec::dense(dg.num_nodes, opts.thread_tpb);
    simt::launch(loop.dev, "sssp.compute.T_PULL", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t d = ctx.load(dist, id, kNodeDist);
      const std::uint32_t begin =
          ctx.load(dg.in_row_offsets, id, kPullRowOffsets);
      const std::uint32_t end =
          ctx.load(dg.in_row_offsets, id + 1, kPullRowOffsets);
      ctx.compute(4, kNodeOps);
      std::uint32_t best = d;
      for (std::uint32_t e = begin; e < end; ++e) {
        const std::uint32_t u = ctx.load(dg.in_col_indices, e, kPullEdgeLoad);
        ctx.compute(2, kEdgeOps);
        if (ctx.load(loop.ws.bitmap(), u, kPullFrontierTest) == 0) continue;
        const std::uint32_t du = ctx.load(dist, u, kNodeDist);
        const std::uint32_t w = ctx.load(dg.in_weights, e, kPullWeightLoad);
        ctx.compute(2, kEdgeOps);
        if (du != graph::kInfinity && du + w < best) best = du + w;
      }
      if (best < d) {
        ctx.store(dist, id, best, kDistStore);
        ctx.store(loop.ws.update(), id, std::uint8_t{1}, kUpdateStore);
        loop.updated.push_back(id);
      }
    });
  }
};

// Unordered SSSP (Bellman-Ford over the two-kernel framework) from the
// first decision `variant`, with `sel` holding the selector's inputs.
GpuSsspResult run_unordered(simt::Device& dev, DeviceGraph& dg,
                            const graph::Csr& g, graph::NodeId source,
                            const SelectorInput& sel, Variant variant,
                            const VariantSelector& selector,
                            const EngineOptions& opts,
                            const PersistentBound& persistent) {
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuSsspResult result;
  auto dist = dev.alloc<std::uint32_t>(g.num_nodes, "sssp.dist");
  InitKernel init(dev, persistent, opts.hybrid_cpu_threshold > 0, "sssp.init",
                  1);
  dev.fill(dist, graph::kInfinity);
  dev.seed_scalar(dist, source, 0u);
  Loop loop(dev, g, dg, opts, result.metrics);
  loop.sel = sel;
  loop.variant = normalize_direction(variant);
  loop.seed_source(source);
  init.end();

  UnorderedEngine engine{dist, dg, g, opts, {}};
  loop.run(engine, "sssp", selector, 16ull * g.num_nodes + 64, persistent,
           "sssp.persistent");

  result.dist.resize(g.num_nodes);
  loop.download(dist, result.dist);

  loop.ws.release(dev);
  dev.free(dist);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

// ---------------------------------------------------------------------------
// Ordered SSSP (Dijkstra-like with GPU parallel-reduction findmin).
// ---------------------------------------------------------------------------

struct OrderedState {
  simt::DeviceBuffer<std::uint32_t>* dist;  // settled distances
  simt::DeviceBuffer<std::uint32_t>* tent;  // tentative distances (candidates)
  simt::DeviceBuffer<std::uint8_t>* cand;   // candidate flags
  DeviceGraph* graph;
  // Host-functional candidate index: tentative value -> nodes (lazy entries;
  // an entry is live iff tent[v] still equals the bucket key and cand[v]).
  std::map<std::uint32_t, std::vector<std::uint32_t>>* buckets;
  std::uint64_t* cand_count;
  std::uint64_t* pairs_outstanding;  // queue repr: <node, distance> pairs queued
};

void settle_element(simt::ThreadCtx& ctx, OrderedState& st, std::uint32_t id,
                    bool strided, bool queue_repr, simt::DeviceBuffer<std::uint32_t>& cand_tail) {
  const std::uint32_t tv = ctx.load(*st.tent, id, kTentLoad);
  if (!strided || ctx.thread_in_block() == 0) {
    ctx.store(*st.dist, id, tv, kDistStore);
    ctx.store(*st.cand, id, std::uint8_t{0}, kCandFlag);
  }
  const std::uint32_t begin = ctx.load(st.graph->row_offsets, id, kRowOffsets);
  const std::uint32_t end = ctx.load(st.graph->row_offsets, id + 1, kRowOffsets);
  ctx.compute(4, kNodeOps);

  std::uint32_t e = begin + (strided ? ctx.thread_in_block() : 0);
  const std::uint32_t step = strided ? ctx.block_dim() : 1;
  for (; e < end; e += step) {
    const std::uint32_t t = ctx.load(st.graph->col_indices, e, kEdgeLoad);
    const std::uint32_t w = ctx.load(st.graph->weights, e, kWeightLoad);
    ctx.compute(3, kEdgeOps);
    const std::uint32_t dt = ctx.load(*st.dist, t, kNodeDist);
    if (dt != graph::kInfinity) continue;  // already settled
    const std::uint32_t nd = tv + w;
    const std::uint32_t old = ctx.atomic_min(*st.tent, t, nd, kRelax);
    if (nd < old) {
      (*st.buckets)[nd].push_back(t);
      ++*st.pairs_outstanding;
      if (queue_repr) {
        // Working-set pair append (atomic tail, as in workset generation).
        ctx.atomic_add(cand_tail, 0, 1u, kCandTail);
      }
      if (ctx.load(*st.cand, t, kUpdateLoad) == 0) {
        ctx.store(*st.cand, t, std::uint8_t{1}, kUpdateStore);
        ++*st.cand_count;
      }
    }
  }
}

GpuSsspResult run_ordered(simt::Device& dev, DeviceGraph& dg,
                          const graph::Csr& g, graph::NodeId source,
                          Variant variant, const EngineOptions& opts) {
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuSsspResult result;
  const std::uint32_t block_tpb = resolve_block_tpb(opts, dg.avg_outdegree);
  auto dist = dev.alloc<std::uint32_t>(g.num_nodes, "osssp.dist");
  auto tent = dev.alloc<std::uint32_t>(g.num_nodes, "osssp.tent");
  auto cand = dev.alloc<std::uint8_t>(g.num_nodes, "osssp.cand");
  auto cand_tail = dev.alloc<std::uint32_t>(1, "osssp.cand_tail");
  // Frontier queue produced (device-side) by the extract/compaction kernel.
  auto fqueue = dev.alloc<std::uint32_t>(g.num_nodes, "osssp.frontier");
  dev.fill(dist, graph::kInfinity);
  dev.fill(tent, graph::kInfinity);
  dev.fill(cand, std::uint8_t{0});
  dev.write_scalar(tent, source, 0u);
  dev.write_scalar(cand, source, std::uint8_t{1});

  std::map<std::uint32_t, std::vector<std::uint32_t>> buckets;
  buckets[0].push_back(source);
  std::uint64_t cand_count = 1;
  // Queue representation: the ordered working set holds <node, distance>
  // pairs, and "the same node can appear multiple times in the working set
  // with different weight values" (Sec. IV.A) — findmin and extraction scan
  // every outstanding pair, not the deduplicated candidate set.
  std::uint64_t pairs_outstanding = 1;
  OrderedState st{&dist, &tent, &cand, &dg, &buckets, &cand_count, &pairs_outstanding};
  const bool queue_repr = variant.repr == WorksetRepr::queue;

  std::vector<std::uint32_t> frontier;
  simt::Predicate pred;
  pred.base_addr = cand.base_addr();
  pred.stride = 1;
  pred.ops = 4;  // candidate flag + tentative-distance comparison

  const std::uint64_t limit =
      opts.max_iterations ? opts.max_iterations : 64ull * g.num_nodes + 64;
  std::uint32_t iteration = 0;
  while (cand_count > 0) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= limit, "sssp failed to converge");
    IterationClock t_iter{dev.mark()};

    // (1) findmin by parallel reduction (Sec. V.B): over the dense tentative
    // array (bitmap) or the compacted candidate queue (queue).
    const std::uint64_t reduce_n =
        queue_repr ? std::max<std::uint64_t>(pairs_outstanding, 1) : g.num_nodes;
    simt::prim::charge_reduce_min(dev, reduce_n);

    // Functional minimum from the bucket index (skipping stale entries).
    frontier.clear();
    while (!buckets.empty() && frontier.empty()) {
      auto it = buckets.begin();
      const std::uint32_t min_key = it->first;
      const auto tent_view = tent.host_view();
      const auto cand_view = cand.host_view();
      for (const std::uint32_t v : it->second) {
        if (cand_view[v] == 1 && tent_view[v] == min_key) frontier.push_back(v);
      }
      pairs_outstanding -= std::min<std::uint64_t>(pairs_outstanding, it->second.size());
      buckets.erase(it);
    }
    if (frontier.empty()) break;  // only stale entries remained
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()), frontier.end());

    // (2) frontier extraction kernel: queue repr compacts the candidate
    // queue (dropping settled/stale entries); bitmap repr skips this — the
    // settle kernel scans all n with the candidate predicate inline.
    if (queue_repr) {
      simt::UniformThreadCost c;
      c.ops = 5;
      c.mem_instrs = 2;  // candidate id + tentative distance
      c.transactions_per_warp = 2.0 * simt::kWarpSize * 4 / 128.0;
      dev.account_kernel(simt::estimate_uniform_kernel(
          dev.props(), dev.timing(), "osssp.extract(analytic)",
          std::max<std::uint64_t>(pairs_outstanding + frontier.size(), 1), 256, c));
      // Functional content of the device frontier queue the extract kernel
      // produced (its cost is the estimate above).
      std::copy(frontier.begin(), frontier.end(), fqueue.host_view().begin());
    }

    // (3) settle + relax kernel over the frontier (mapping-dependent).
    if (variant.mapping == Mapping::thread) {
      if (queue_repr) {
        const auto grid = simt::GridSpec::dense(frontier.size(), opts.thread_tpb);
        simt::launch(dev, "osssp.settle.T_QU", grid, [&](simt::ThreadCtx& ctx) {
          const std::uint32_t id = ctx.load(fqueue, ctx.global_id(), kQueueLoad);
          settle_element(ctx, st, id, false, true, cand_tail);
        });
      } else {
        const auto grid = simt::GridSpec::over_threads(
            g.num_nodes, opts.thread_tpb, frontier, pred);
        simt::launch(dev, "osssp.settle.T_BM", grid, [&](simt::ThreadCtx& ctx) {
          settle_element(ctx, st, static_cast<std::uint32_t>(ctx.global_id()),
                         false, false, cand_tail);
        });
      }
    } else {
      if (queue_repr) {
        const auto grid =
            simt::GridSpec::dense(frontier.size() * block_tpb, block_tpb);
        simt::launch(dev, "osssp.settle.B_QU", grid, [&](simt::ThreadCtx& ctx) {
          const std::uint32_t id = ctx.load(fqueue, ctx.block_idx(), kQueueLoad);
          settle_element(ctx, st, id, true, true, cand_tail);
        });
      } else {
        const auto grid =
            simt::GridSpec::over_blocks(g.num_nodes, block_tpb, frontier, pred);
        simt::launch(dev, "osssp.settle.B_BM", grid, [&](simt::ThreadCtx& ctx) {
          settle_element(ctx, st, static_cast<std::uint32_t>(ctx.block_idx()),
                         true, false, cand_tail);
        });
      }
    }
    for (const std::uint32_t v : frontier) {
      result.metrics.edges_processed += g.degree(v);
    }
    cand_count -= frontier.size();

    record_iteration(result.metrics, "sssp_delta",
                     {iteration, frontier.size(), variant},
                     t_iter, dev.mark());
  }

  result.dist.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.dist), dist);

  dev.free(dist);
  dev.free(tent);
  dev.free(cand);
  dev.free(cand_tail);
  dev.free(fqueue);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace

GpuSsspResult run_sssp(simt::Device& dev, const graph::Csr& g, graph::NodeId source,
                       const VariantSelector& selector, const EngineOptions& opts,
                       const PersistentBound& persistent) {
  AGG_CHECK_MSG(g.has_weights(), "SSSP requires edge weights");
  return run_one_shot(dev, g, /*with_weights=*/true, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_sssp(dev, dg, g, source, selector, opts,
                                        persistent);
                      });
}

GpuSsspResult run_sssp(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                       graph::NodeId source, const VariantSelector& selector,
                       const EngineOptions& opts,
                       const PersistentBound& persistent) {
  AGG_CHECK(source < g.num_nodes);
  AGG_CHECK_MSG(g.has_weights(), "SSSP requires edge weights");
  simt::StreamGuard sguard(dev, opts.stream);
  SelectorInput sel;
  sel.ws_size = 1;
  sel.avg_outdegree = dg.avg_outdegree;
  sel.outdeg_stddev = dg.outdeg_stddev;
  sel.num_nodes = g.num_nodes;
  sel.num_edges = dg.num_edges;
  sel.frontier_edges = g.degree(source);
  // Direction controller input: unlike BFS, a weighted min-fold cannot stop
  // at the first frontier in-neighbor, so a pull iteration always rescans
  // every in-edge *and* its weight — the gather volume is a flat 2m however
  // little remains unexplored. Reporting that (instead of BFS's first-touch
  // remainder) keeps the alpha rule honest: the frontier's scatter mass can
  // never cover it, so direction-optimizing SSSP correctly stays push.
  sel.unexplored_edges = 2 * dg.num_edges;
  Variant initial = selector(sel);
  if (initial.ordering == Ordering::ordered) {
    AGG_CHECK_MSG(initial.mapping != Mapping::warp,
                  "warp-centric mapping is an unordered-only extension");
    // The ordered (Dijkstra-like) formulation has no gather phase; pull is
    // an unordered-only axis.
    initial.direction = Direction::push;
    return run_ordered(dev, dg, g, source, initial, opts);
  }
  return run_unordered(dev, dg, g, source, sel, initial, selector, opts,
                       persistent);
}

}  // namespace gg
