#include "gpu_graph/mst_engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>

#include "gpu_graph/device_graph.h"
#include "gpu_graph/frontier_launch.h"

namespace gg {
namespace {

constexpr simt::Site kCompLoad{0, "mst.comp"};
constexpr simt::Site kRowOffsets{1, "mst.row-offsets"};
constexpr simt::Site kNodeOps{2, "mst.node-ops"};
constexpr simt::Site kEdgeLoad{3, "mst.edge-load"};
constexpr simt::Site kWeightLoad{4, "mst.weight-load"};
constexpr simt::Site kNbrComp{5, "mst.nbr-comp"};
constexpr simt::Site kEdgeOps{6, "mst.edge-ops"};
constexpr simt::Site kBestMin{7, "mst.best-atomic"};
constexpr simt::Site kUpdateLoad{8, "mst.update-load"};
constexpr simt::Site kUpdateStore{9, "mst.update-store"};
constexpr simt::Site kQueueLoad{10, "mst.queue-load"};
constexpr simt::Site kBitmapClear{11, "mst.bitmap-clear"};

constexpr std::uint64_t kNoEdge = ~0ull;

constexpr std::uint64_t pack(std::uint32_t weight, std::uint32_t arc) {
  return (static_cast<std::uint64_t>(weight) << 32) | arc;
}
constexpr std::uint32_t unpack_arc(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed);
}
constexpr std::uint32_t unpack_weight(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}

// Both arcs of an undirected edge must sort identically under the Boruvka
// tie-break, or equal-weight ties could hook components into cycles longer
// than the symmetric 2-cycles the break step handles. Arcs are therefore
// paired into canonical undirected-edge ids once per run.
std::vector<std::uint32_t> canonical_edge_ids(const graph::Csr& g) {
  std::vector<std::uint32_t> canon(g.num_edges(), 0);
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::vector<std::uint32_t>>
      pending;  // (min,max,w) -> forward canonical ids not yet matched
  std::uint32_t next_id = 0;
  for (std::uint32_t u = 0; u < g.num_nodes; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t e = g.row_offsets[u] + static_cast<std::uint32_t>(i);
      const std::uint32_t v = nbrs[i];
      if (u < v) {
        canon[e] = next_id;
        pending[{u, v, wts[i]}].push_back(next_id);
        ++next_id;
      } else if (u == v) {
        canon[e] = next_id++;  // self loop: never a cross edge anyway
      }
    }
  }
  for (std::uint32_t u = 0; u < g.num_nodes; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t e = g.row_offsets[u] + static_cast<std::uint32_t>(i);
      const std::uint32_t v = nbrs[i];
      if (u <= v) continue;
      auto it = pending.find({v, u, wts[i]});
      if (it != pending.end() && !it->second.empty()) {
        canon[e] = it->second.back();
        it->second.pop_back();
      } else {
        canon[e] = next_id++;  // asymmetric stray arc: unique id keeps order total
      }
    }
  }
  return canon;
}

// Source node of an arc (binary search over the row offsets; host side only,
// used during hooking).
std::uint32_t edge_source(const graph::Csr& g, std::uint32_t arc) {
  const auto it = std::upper_bound(g.row_offsets.begin(), g.row_offsets.end(), arc);
  return static_cast<std::uint32_t>(it - g.row_offsets.begin()) - 1;
}

// Analytic charge for the auxiliary per-root / per-node kernels (hooking,
// cycle breaking, one pointer-jump pass).
void charge_aux_kernel(simt::Device& dev, const char* name, std::uint64_t threads,
                       double mem_instrs) {
  simt::UniformThreadCost c;
  c.ops = 4;
  c.mem_instrs = mem_instrs;
  c.transactions_per_warp = mem_instrs * simt::kWarpSize * 4 / 128.0;
  dev.account_kernel(
      simt::estimate_uniform_kernel(dev.props(), dev.timing(), name, threads, 256, c));
}

constexpr FrontierKernels kFindMin{
    "mst.findmin.T_BM", "mst.findmin.T_QU", "mst.findmin.B_BM",
    "mst.findmin.B_QU", "mst.findmin.W_BM", "mst.findmin.W_QU",
    kQueueLoad,         kBitmapClear,       kUpdateLoad,
    kUpdateStore};
using Loop = FrontierLoop<kFindMin>;

// Boruvka rounds: the traced find-min kernel over the components' working
// set, then hooking, cycle breaking and pointer jumping on the host with
// analytic charges.
struct MstEngine {
  const graph::Csr& g;
  const DeviceGraph& dg;
  simt::DeviceBuffer<std::uint32_t>& comp;
  simt::DeviceBuffer<std::uint64_t>& best;
  simt::DeviceBuffer<std::uint32_t>& canon;  // canonical undirected-edge ids
  // arc_of[canonical id] = one arc carrying it (for weight/endpoint lookup).
  std::vector<std::uint32_t> arc_of;
  GpuMstResult& result;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint8_t> selected;
  std::vector<std::uint32_t> live_roots;

  // (1) Reset best slots of the components still in play.
  void before_compute(Loop& loop) {
    live_roots.clear();
    auto comp_view = comp.host_view();
    auto best_view = best.host_view();
    for (const std::uint32_t v : loop.frontier) {
      const std::uint32_t r = comp_view[v];
      live_roots.push_back(r);
      best_view[r] = kNoEdge;
    }
    std::sort(live_roots.begin(), live_roots.end());
    live_roots.erase(std::unique(live_roots.begin(), live_roots.end()),
                     live_roots.end());
    charge_aux_kernel(loop.dev, "mst.reset_best", live_roots.size(), 1);
  }

  // (2) The traced working-set kernel: scan the node's adjacency for the
  // minimum cross-component arc and fold it into the component's best slot.
  void element(simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
               std::uint32_t step, FrontierPush<kFindMin>& push) {
    const std::uint32_t rv = ctx.load(comp, id, kCompLoad);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRowOffsets);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRowOffsets);
    ctx.compute(4, kNodeOps);

    bool saw_cross = false;
    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdgeLoad);
      const std::uint32_t w = ctx.load(dg.weights, e, kWeightLoad);
      const std::uint32_t rt = ctx.load(comp, t, kNbrComp);
      ctx.compute(4, kEdgeOps);
      if (rt == rv) continue;
      saw_cross = true;
      const std::uint32_t c = ctx.load(canon, e, kEdgeLoad);
      ctx.atomic_min(best, rv, pack(w, c), kBestMin);
    }
    if (saw_cross) push.mark(id);  // still live next round
  }

  void after_compute(Loop& loop) {
    // (3) Hook components along their best arcs (per-root kernel).
    std::iota(parent.begin(), parent.end(), 0u);
    std::uint32_t hooks = 0;
    auto comp_view = comp.host_view();
    auto best_view = best.host_view();
    for (const std::uint32_t r : live_roots) {
      if (best_view[r] == kNoEdge) continue;
      const std::uint32_t arc = arc_of[unpack_arc(best_view[r])];
      // Hook towards the side of the arc that is NOT r's component.
      const std::uint32_t rt = comp_view[g.col_indices[arc]];
      parent[r] = rt != r ? rt : comp_view[edge_source(g, arc)];
      ++hooks;
    }
    charge_aux_kernel(loop.dev, "mst.hook", live_roots.size(), 3);

    // (4) Break symmetric hooks: the smaller root stays a root; the
    // surviving hook's arc joins the forest.
    for (const std::uint32_t r : live_roots) {
      if (parent[r] != r && parent[parent[r]] == r && r < parent[r]) {
        parent[r] = r;
        --hooks;
      }
    }
    charge_aux_kernel(loop.dev, "mst.cycle_break", live_roots.size(), 2);
    for (const std::uint32_t r : live_roots) {
      if (parent[r] == r || best_view[r] == kNoEdge) continue;
      const std::uint32_t c = unpack_arc(best_view[r]);  // canonical id
      if (!selected[c]) {
        selected[c] = 1;
        result.total_weight += unpack_weight(best_view[r]);
        ++result.edges_in_forest;
      }
    }

    // (5) Pointer jumping: flatten every node's label to its new root.
    std::uint32_t jump_passes = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ++jump_passes;
      for (const std::uint32_t r : live_roots) {
        if (parent[r] != parent[parent[r]]) {
          parent[r] = parent[parent[r]];
          changed = true;
        }
      }
    }
    for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
      comp_view[v] = parent[comp_view[v]];
    }
    // One per-node relabel pass plus jump_passes passes over the roots.
    charge_aux_kernel(loop.dev, "mst.relabel", g.num_nodes, 2);
    for (std::uint32_t p = 0; p < jump_passes; ++p) {
      charge_aux_kernel(loop.dev, "mst.jump", live_roots.size(), 2);
    }
    // No component merged: the surviving update flags are stale; the loop
    // clears them and stops.
    loop.last = hooks == 0;
  }
};

}  // namespace

GpuMstResult run_mst(simt::Device& dev, const graph::Csr& g,
                     const VariantSelector& selector, const EngineOptions& opts) {
  AGG_CHECK_MSG(g.has_weights(), "MST requires edge weights");
  // MST contracts the graph as it runs, so there is no resident-graph form;
  // the stream context still applies (the whole run issues on opts.stream).
  simt::StreamGuard sguard(dev, opts.stream);
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuMstResult result;
  DeviceGraph dg = DeviceGraph::upload(dev, g, /*with_weights=*/true);

  auto comp = dev.alloc<std::uint32_t>(g.num_nodes, "mst.comp");
  std::iota(comp.host_view().begin(), comp.host_view().end(), 0u);
  charge_aux_kernel(dev, "mst.init", g.num_nodes, 1);
  auto best = dev.alloc<std::uint64_t>(g.num_nodes, "mst.best");
  dev.fill(best, kNoEdge);
  // Canonical undirected-edge ids, uploaded once beside the CSR.
  const auto canon_host = canonical_edge_ids(g);
  auto canon = dev.alloc<std::uint32_t>(g.num_edges(), "mst.canon");
  dev.memcpy_h2d(canon, std::span<const std::uint32_t>(canon_host));
  MstEngine engine{g,
                   dg,
                   comp,
                   best,
                   canon,
                   std::vector<std::uint32_t>(g.num_edges()),
                   result,
                   std::vector<std::uint32_t>(g.num_nodes),
                   std::vector<std::uint8_t>(g.num_edges(), 0),
                   {}};
  for (std::uint32_t e = 0; e < g.num_edges(); ++e) {
    engine.arc_of[canon_host[e]] = e;
  }
  Loop loop(dev, g, dg, opts, result.metrics);

  loop.sel.ws_size = g.num_nodes;
  loop.variant = selector(loop.sel);
  loop.variant.ordering = Ordering::unordered;
  std::vector<std::uint32_t> all(g.num_nodes);
  std::iota(all.begin(), all.end(), 0u);
  loop.seed(std::move(all));
  loop.run(engine, "mst", selector, g.num_nodes + 64ull);

  result.component.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.component), comp);
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    if (result.component[v] == v) ++result.num_trees;
  }

  loop.ws.release(dev);
  dev.free(comp);
  dev.free(best);
  dev.free(canon);
  dg.release(dev);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
