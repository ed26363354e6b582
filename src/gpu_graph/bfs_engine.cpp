#include "gpu_graph/bfs_engine.h"

#include <algorithm>
#include <cmath>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"
#include "gpu_graph/persistent_run.h"
#include "gpu_graph/workset.h"
#include "simt/launch.h"

namespace gg {
namespace {

// Static access sites of the CUDA_computation kernel (Fig. 9 top).
constexpr simt::Site kNodeLevel{0, "bfs.node-level"};
constexpr simt::Site kRowOffsets{1, "bfs.row-offsets"};
constexpr simt::Site kNodeOps{2, "bfs.node-ops"};
constexpr simt::Site kEdgeLoad{3, "bfs.edge-load"};
constexpr simt::Site kEdgeOps{4, "bfs.edge-ops"};
constexpr simt::Site kNbrLevel{5, "bfs.nbr-level"};
constexpr simt::Site kLevelStore{6, "bfs.level-store"};
constexpr simt::Site kUpdateLoad{7, "bfs.update-load"};
constexpr simt::Site kUpdateStore{8, "bfs.update-store"};
constexpr simt::Site kQueueLoad{9, "bfs.queue-load"};
constexpr simt::Site kBitmapClear{10, "bfs.bitmap-clear"};
constexpr simt::Site kPullRowOffsets{11, "bfs.pull-row-offsets"};
constexpr simt::Site kPullEdgeLoad{12, "bfs.pull-edge-load"};
constexpr simt::Site kPullFrontierTest{13, "bfs.pull-frontier-test"};
constexpr simt::Site kRepOldId{14, "bfs.rep-old-id"};
constexpr simt::Site kRepLevelLoad{15, "bfs.rep-level-load"};
constexpr simt::Site kRepLevelStore{16, "bfs.rep-level-store"};

struct BfsKernelState {
  simt::DeviceBuffer<std::uint32_t>* level;
  DeviceGraph* graph;
  Workset* ws;
  std::vector<std::uint32_t>* updated;  // host shadow of set update flags
  bool ordered;
};

// Per-element body shared by all launch shapes. The caller chooses how the
// adjacency is partitioned: thread mapping visits it whole (offset 0, step
// 1); block mapping strides it across the block; warp-centric mapping
// strides it across the 32 lanes of the owning virtual warp.
void visit_element(simt::ThreadCtx& ctx, BfsKernelState& st, std::uint32_t id,
                   std::uint32_t offset, std::uint32_t step) {
  const std::uint32_t lvl = ctx.load(*st.level, id, kNodeLevel);
  const std::uint32_t begin = ctx.load(st.graph->row_offsets, id, kRowOffsets);
  const std::uint32_t end = ctx.load(st.graph->row_offsets, id + 1, kRowOffsets);
  ctx.compute(4, kNodeOps);
  const std::uint32_t next = lvl + 1;

  for (std::uint32_t e = begin + offset; e < end; e += step) {
    const std::uint32_t t = ctx.load(st.graph->col_indices, e, kEdgeLoad);
    ctx.compute(3, kEdgeOps);
    const std::uint32_t tl = ctx.load(*st.level, t, kNbrLevel);
    // Fig. 4: ordered processes a node once (undefined level); unordered
    // re-admits as long as the level decreases.
    const bool improves = st.ordered ? tl == graph::kInfinity : next < tl;
    if (improves) {
      ctx.store(*st.level, t, next, kLevelStore);
      if (ctx.load(st.ws->update(), t, kUpdateLoad) == 0) {
        ctx.store(st.ws->update(), t, std::uint8_t{1}, kUpdateStore);
        st.updated->push_back(t);
      }
    }
  }
}

constexpr FrontierKernels kCompute{
    "bfs.compute.T_BM", "bfs.compute.T_QU", "bfs.compute.B_BM",
    "bfs.compute.B_QU", "bfs.compute.W_BM", "bfs.compute.W_QU",
    kQueueLoad, kBitmapClear};

// Pull (gather) formulation, Beamer-style: a dense thread-per-vertex kernel
// in which every *unvisited* vertex scans its in-neighbors (CSC) for a
// frontier member, early-exiting on the first hit. No scatter-side work at
// all — each thread stores only to its own level/update cells, so there is
// no inter-thread claim on the update flag — and the in-edge reads are the
// coalesced gather the CSC exists for. Blocks run in block order on one
// host thread, so discovered ids are push_backed into the host-side updated
// shadow.
void launch_pull(simt::Device& dev, BfsKernelState& st, std::uint32_t thread_tpb) {
  const std::uint32_t n = st.graph->num_nodes;
  const auto grid = simt::GridSpec::dense(n, thread_tpb);
  simt::launch(dev, "bfs.compute.T_PULL", grid, [&](simt::ThreadCtx& ctx) {
    const auto id = static_cast<std::uint32_t>(ctx.global_id());
    const std::uint32_t lvl = ctx.load(*st.level, id, kNodeLevel);
    ctx.compute(1, kNodeOps);
    if (lvl != graph::kInfinity) return;  // visited: one load and out
    const std::uint32_t begin =
        ctx.load(st.graph->in_row_offsets, id, kPullRowOffsets);
    const std::uint32_t end =
        ctx.load(st.graph->in_row_offsets, id + 1, kPullRowOffsets);
    ctx.compute(2, kNodeOps);
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t u = ctx.load(st.graph->in_col_indices, e, kPullEdgeLoad);
      ctx.compute(2, kEdgeOps);
      if (ctx.load(st.ws->bitmap(), u, kPullFrontierTest) == 0) continue;
      const std::uint32_t ul = ctx.load(*st.level, u, kNbrLevel);
      ctx.store(*st.level, id, ul + 1, kLevelStore);
      ctx.store(st.ws->update(), id, std::uint8_t{1}, kUpdateStore);
      st.updated->push_back(id);
      break;  // first frontier in-neighbor wins; rest of the scan is skipped
    }
  });
}

}  // namespace

std::uint32_t derive_block_tpb(double avg_outdegree) {
  const double rounded = std::round(avg_outdegree / simt::kWarpSize) *
                         simt::kWarpSize;
  return static_cast<std::uint32_t>(
      std::clamp(rounded, 32.0, 1024.0));
}

GpuBfsResult run_bfs(simt::Device& dev, const graph::Csr& g, graph::NodeId source,
                     const VariantSelector& selector, const EngineOptions& opts,
                     const PersistentBound& persistent) {
  return run_one_shot(dev, g, /*with_weights=*/false, opts.stream,
                      [&](DeviceGraph& dg) {
                        return run_bfs(dev, dg, g, source, selector, opts,
                                       persistent);
                      });
}

GpuBfsResult run_bfs(simt::Device& dev, DeviceGraph& dg, const graph::Csr& g,
                     graph::NodeId source, const VariantSelector& selector,
                     const EngineOptions& opts,
                     const PersistentBound& persistent) {
  AGG_CHECK(source < g.num_nodes);
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuBfsResult result;

  const std::uint32_t block_tpb =
      opts.block_tpb ? opts.block_tpb : derive_block_tpb(dg.avg_outdegree);

  // Representation controller state (DESIGN.md "Representation adaptivity").
  // `cur_g`/`cur_dg` always describe the layout the kernels run over;
  // `cur_view` carries the id maps when that layout is not the plain CSR
  // (null = identity). Host bookkeeping (`seen`, unexplored mass) and the
  // selector's topology stats stay in ORIGINAL graph terms throughout — the
  // decisions are about the logical graph, not the layout du jour.
  const RepSet* reps = opts.reps;
  Representation rep = Representation::plain;
  const graph::RelabeledGraph* cur_view = nullptr;
  std::optional<graph::RelabeledGraph> rel_scratch;
  std::optional<graph::RelabeledGraph> bin_scratch;
  const auto obtain_view = [&](Representation kind) {
    const bool to_rel = kind == Representation::relabelled;
    const graph::RelabeledGraph* view = to_rel ? reps->rel : reps->bin;
    if (view == nullptr) {
      auto& scratch = to_rel ? rel_scratch : bin_scratch;
      if (!scratch) {
        scratch = to_rel ? graph::relabel_by_degree(g) : graph::build_binned(g);
      }
      view = &*scratch;
    }
    return view;
  };
  const graph::Csr* cur_g = &g;
  DeviceGraph* cur_dg = &dg;
  if (reps && reps->initial != Representation::plain) {
    // Upload-time decision: start directly in the preferred layout. The
    // conversion upload is charged here (a no-op when a Session pin already
    // holds the layout resident).
    cur_view = obtain_view(reps->initial);
    cur_dg = &dg.ensure_rep_resident(dev, reps->initial, *cur_view,
                                     /*with_weights=*/false);
    cur_g = &cur_view->csr;
    rep = reps->initial;
  }
  const auto to_cur = [&](std::uint32_t orig) {
    return cur_view ? cur_view->new_id[orig] : orig;
  };

  auto level = dev.alloc<std::uint32_t>(cur_g->num_nodes, "bfs.level");
  dev.fill(level, graph::kInfinity);
  dev.write_scalar(level, to_cur(source), 0u);
  Workset ws(dev, cur_g->num_nodes, opts.scan_queue_gen);

  // Direction-optimizing bookkeeping (Beamer-style, host side): out-edges of
  // vertices the traversal has not touched yet, maintained by first-touch
  // accounting over the updated lists.
  std::uint64_t unexplored_edges = dg.num_edges - g.degree(source);
  std::vector<std::uint8_t> seen(g.num_nodes, 0);
  seen[source] = 1;
  std::optional<graph::Csr> csc_scratch;
  std::optional<graph::Csr> csc_scratch_rep;

  SelectorInput sel;
  sel.iteration = 0;
  sel.ws_size = 1;
  sel.avg_outdegree = dg.avg_outdegree;
  sel.outdeg_stddev = dg.outdeg_stddev;
  sel.num_nodes = g.num_nodes;
  sel.frontier_edges = g.degree(source);
  sel.unexplored_edges = unexplored_edges;
  sel.num_edges = dg.num_edges;
  sel.direction = Direction::push;
  sel.representation = rep;
  sel.max_outdegree = 0;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    sel.max_outdegree = std::max(sel.max_outdegree, g.degree(v));
  }
  sel.rel_available = reps != nullptr;
  sel.bin_available = reps != nullptr;
  sel.rel_resident = dg.rep_resident(Representation::relabelled, false);
  sel.bin_resident = dg.rep_resident(Representation::binned, false);
  Variant variant = normalize_direction(selector(sel));
  variant.representation = rep;
  ws.init_source(dev, to_cur(source), variant.repr);

  std::vector<std::uint32_t> frontier{to_cur(source)};
  std::vector<std::uint32_t> updated;
  BfsKernelState st{&level, cur_dg, &ws, &updated,
                    variant.ordering == Ordering::ordered};

  const std::uint64_t max_iters =
      opts.max_iterations ? opts.max_iterations
                          : 4ull * g.num_nodes + 64;

  const bool hybrid = opts.hybrid_cpu_threshold > 0;
  bool on_cpu = hybrid && frontier.size() < opts.hybrid_cpu_threshold;
  if (on_cpu) {
    // Entering a CPU phase: download the state array (Hong et al. [13]-style
    // hybrid execution keeps host and device copies in sync at switches).
    dev.account_transfer(4ull * cur_g->num_nodes, /*to_device=*/false);
  }
  PersistentRuns runs(dev, hybrid ? PersistentBound{} : persistent, "bfs",
                      "bfs.persistent", block_tpb);

  std::uint32_t iteration = 0;
  while (!frontier.empty()) {
    ++iteration;
    AGG_CHECK_MSG(iteration <= max_iters, "BFS failed to converge");
    IterationClock t_iter{dev.mark()};
    runs.enter(variant, on_cpu, frontier.size(), iteration, result.metrics);

    st.ordered = variant.ordering == Ordering::ordered;
    std::uint64_t frontier_edges = 0;
    for (const std::uint32_t v : frontier) frontier_edges += cur_g->degree(v);
    result.metrics.edges_processed += frontier_edges;

    if (on_cpu) {
      // Serial host processing of this (small) frontier: no kernel launches,
      // no readbacks — the hybrid's whole advantage on high-diameter graphs.
      auto level_view = level.host_view();
      auto update_view = ws.update().host_view();
      for (const std::uint32_t v : frontier) {
        const std::uint32_t next_level = level_view[v] + 1;
        for (const graph::NodeId t : cur_g->neighbors(v)) {
          const bool improves = st.ordered ? level_view[t] == graph::kInfinity
                                           : next_level < level_view[t];
          if (improves) {
            level_view[t] = next_level;
            if (update_view[t] == 0) {
              update_view[t] = 1;
              updated.push_back(t);
            }
          }
        }
      }
      dev.account_host_compute(
          (static_cast<double>(frontier.size()) * opts.hybrid_cpu_cycles_per_node +
           static_cast<double>(frontier_edges) * opts.hybrid_cpu_cycles_per_edge) /
          (opts.hybrid_cpu_clock_ghz * 1e3));
    } else if (variant.direction == Direction::pull) {
      // Gather iteration: make the CSC resident (first pull pays the
      // transfer; Session pins keep it across queries), run the dense pull
      // kernel against the bitmap frontier, then wipe the consumed frontier
      // bits (pull kernels cannot clear them in-kernel — every in-edge scan
      // reads them).
      ensure_csc_resident(dev, *cur_dg, *cur_g,
                          rep == Representation::plain ? opts.csc : nullptr,
                          /*with_weights=*/false,
                          rep == Representation::plain ? csc_scratch
                                                       : csc_scratch_rep);
      launch_pull(dev, st, opts.thread_tpb);
      ws.charge_termination_readback(dev);
      ws.clear_frontier_bitmap(dev, frontier);
    } else {
      launch_frontier<kCompute>(
          dev, variant, ws, frontier, opts.thread_tpb, block_tpb,
          [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
              std::uint32_t step) {
            visit_element(ctx, st, id, offset, step);
          });
      runs.test(updated.size(), iteration, result.metrics, t_iter);
      // Per-iteration termination signal (Fig. 8 line 4); inside a
      // persistent run the device tests |WS| itself.
      if (!runs.open()) ws.charge_termination_readback(dev);
    }
    std::sort(updated.begin(), updated.end());

    std::uint64_t next_frontier_edges = 0;
    for (const std::uint32_t v : updated) {
      const std::uint64_t d = cur_g->degree(v);
      next_frontier_edges += d;
      const std::uint32_t ov = cur_view ? cur_view->old_id[v] : v;
      if (!seen[ov]) {
        seen[ov] = 1;
        unexplored_edges -= d;
      }
    }

    const bool next_on_cpu =
        hybrid && updated.size() < opts.hybrid_cpu_threshold;

    // Decision point (Sec. VI.E): sampled working-set monitoring + selector.
    Variant next = variant;
    if (opts.monitor_interval > 0 && iteration % opts.monitor_interval == 0) {
      if (!on_cpu && variant.repr == WorksetRepr::bitmap) {
        ws.charge_bitmap_count_kernel(dev);  // queue mode: size known from tail
      }
      sel.iteration = iteration;
      sel.ws_size = updated.size();
      sel.frontier_edges = next_frontier_edges;
      sel.unexplored_edges = unexplored_edges;
      sel.direction = variant.direction;
      sel.representation = rep;
      sel.rel_resident = dg.rep_resident(Representation::relabelled, false);
      sel.bin_resident = dg.rep_resident(Representation::binned, false);
      ++result.metrics.decisions;
      next = normalize_direction(selector(sel));
      next.ordering = variant.ordering;  // ordering is fixed per traversal
      runs.check_kept(next, variant);
      // Representation switches are single-hop from plain and only apply on
      // device (a CPU phase has no layout to speak of); anything else keeps
      // the layout the traversal is already in.
      if (next.representation != rep &&
          (reps == nullptr || rep != Representation::plain || on_cpu ||
           next_on_cpu)) {
        next.representation = rep;
      }
      if (!on_cpu && next != variant) ++result.metrics.switches;
    }

    // Host phases are scalar scatter loops; direction only applies on device.
    if (next_on_cpu) next.direction = Direction::push;
    if (on_cpu != next_on_cpu) {
      // Direction switch: sync the state array across PCIe.
      if (next_on_cpu) {
        dev.account_transfer(4ull * cur_g->num_nodes, /*to_device=*/false);
      } else {
        dev.account_transfer(4ull * cur_g->num_nodes, /*to_device=*/true);
        // Re-materialize the device update vector before generation.
        dev.account_transfer(cur_g->num_nodes, /*to_device=*/true);
      }
    }

    if (next.representation != rep) {
      // Mid-run representation switch (amortization-checked by the
      // controller): pin the target layout (conversion billed on the copy
      // engine), migrate the level array on-device through the id maps,
      // and re-seed the working set in the new id space.
      const graph::RelabeledGraph* view = obtain_view(next.representation);
      DeviceGraph& ndg = dg.ensure_rep_resident(dev, next.representation,
                                                *view, /*with_weights=*/false);
      DeviceGraph::RepResident& maps = dg.rep_slot(next.representation);
      const std::uint32_t n_new = ndg.num_nodes;
      auto nlevel = dev.alloc<std::uint32_t>(n_new, "bfs.level");
      const auto grid = simt::GridSpec::dense(n_new, opts.thread_tpb);
      simt::launch(dev, "bfs.rep.migrate", grid, [&](simt::ThreadCtx& ctx) {
        const auto id = static_cast<std::uint32_t>(ctx.global_id());
        const std::uint32_t old = ctx.load(maps.old_id, id, kRepOldId);
        const std::uint32_t lvl =
            old == graph::kInfinity
                ? graph::kInfinity
                : ctx.load(level, old, kRepLevelLoad);
        ctx.store(nlevel, id, lvl, kRepLevelStore);
      });
      dev.free(level);
      level = std::move(nlevel);
      ws.release(dev);
      ws = Workset(dev, n_new, opts.scan_queue_gen);
      for (std::uint32_t& v : updated) v = view->new_id[v];
      std::sort(updated.begin(), updated.end());
      cur_view = view;
      cur_g = &view->csr;
      cur_dg = &ndg;
      st.graph = cur_dg;
      rep = next.representation;
    }

    if (!updated.empty() && !next_on_cpu) {
      ws.generate(dev, next.repr, updated);
    } else if (!updated.empty()) {
      // CPU phase: clear the flags functionally (the host owns the state).
      for (const std::uint32_t v : updated) ws.update().host_view()[v] = 0;
    }

    runs.record(result.metrics,
                {iteration, frontier.size(), variant, 0, on_cpu},
                t_iter, dev.mark());
    frontier.swap(updated);
    updated.clear();
    variant = next;
    on_cpu = next_on_cpu;
  }

  // Download the result (included in the measured time, as in the paper).
  // A traversal that ends in an alternate layout downloads the slot-space
  // levels and maps them back to original ids — payloads never leave the
  // engine in a permuted space.
  result.level.resize(g.num_nodes);
  if (on_cpu) {
    // Hybrid run ended in a CPU phase: the state array is already host
    // resident, so no download is charged.
    const auto view = level.host_view();
    if (cur_view) {
      for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
        result.level[v] = view[cur_view->new_id[v]];
      }
    } else {
      std::copy(view.begin(), view.end(), result.level.begin());
    }
  } else if (cur_view) {
    std::vector<std::uint32_t> slot_level(cur_g->num_nodes);
    dev.memcpy_d2h(std::span<std::uint32_t>(slot_level), level);
    for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
      result.level[v] = slot_level[cur_view->new_id[v]];
    }
  } else {
    dev.memcpy_d2h(std::span<std::uint32_t>(result.level), level);
  }

  ws.release(dev);
  dev.free(level);

  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
