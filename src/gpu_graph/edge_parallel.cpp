#include "gpu_graph/edge_parallel.h"

#include "graph/coo.h"
#include "simt/launch.h"

namespace gg {
namespace {

// Per-arc kernel cost: load src id + dst id + weight (all streaming,
// coalesced), load dist[src] (consecutive arcs share a source: mostly
// broadcast) and dist[dst] (scattered), compare; relaxations themselves are
// rare and folded into the scattered traffic.
simt::UniformThreadCost per_arc_cost() {
  simt::UniformThreadCost c;
  c.ops = 6;
  c.mem_instrs = 5;
  // src/dst/w streams: 3 segments per warp; dist[src]: ~2 (few distinct
  // sources per warp); dist[dst]: scattered, ~half the lanes miss.
  c.transactions_per_warp = 3.0 + 2.0 + 16.0;
  return c;
}

}  // namespace

GpuEdgeParallelResult run_sssp_edge_parallel(simt::Device& dev,
                                             const graph::Csr& g,
                                             graph::NodeId source) {
  AGG_CHECK(source < g.num_nodes);
  AGG_CHECK_MSG(g.has_weights(), "SSSP requires edge weights");
  const simt::StatsMark t_begin = dev.stats_mark();

  GpuEdgeParallelResult result;
  const graph::Coo coo = graph::Coo::from_csr(g);

  // Device arrays: the three COO streams plus the distance array.
  auto src = dev.alloc<std::uint32_t>(coo.num_edges(), "ep.src");
  dev.memcpy_h2d(src, std::span<const std::uint32_t>(coo.src));
  auto dst = dev.alloc<std::uint32_t>(coo.num_edges(), "ep.dst");
  dev.memcpy_h2d(dst, std::span<const std::uint32_t>(coo.dst));
  auto wts = dev.alloc<std::uint32_t>(coo.num_edges(), "ep.w");
  dev.memcpy_h2d(wts, std::span<const std::uint32_t>(coo.weights));
  auto dist = dev.alloc<std::uint32_t>(g.num_nodes, "ep.dist");
  dev.fill(dist, graph::kInfinity);
  dev.write_scalar(dist, source, 0u);

  // Host-functional relaxation with the full-array kernel charged each
  // round: the kernel's cost is uniform per arc (it scans all m arcs whether
  // or not they relax), so only the arcs that actually relax need functional execution.
  auto dist_view = dist.host_view();
  std::vector<std::uint32_t> changed{source};
  std::vector<std::uint8_t> queued(g.num_nodes, 0);

  std::uint32_t round = 0;
  while (!changed.empty()) {
    ++round;
    AGG_CHECK_MSG(round <= g.num_nodes + 2, "edge-parallel SSSP diverged");
    IterationClock t_iter{dev.mark()};

    // Charge the full m-thread kernel + changed-flag readback.
    dev.account_kernel(simt::estimate_uniform_kernel(
        dev.props(), dev.timing(), "ep.relax_all", coo.num_edges(), 256,
        per_arc_cost()));
    dev.account_transfer(sizeof(std::uint32_t), /*to_device=*/false);
    result.metrics.edges_processed += coo.num_edges();

    // Functional effect of the round: relax out-arcs of changed sources.
    std::vector<std::uint32_t> next;
    for (const std::uint32_t v : changed) queued[v] = 0;
    for (const std::uint32_t v : changed) {
      const std::uint32_t dv = dist_view[v];
      const auto nbrs = g.neighbors(v);
      const auto w = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const std::uint32_t nd = dv + w[i];
        if (nd < dist_view[nbrs[i]]) {
          dist_view[nbrs[i]] = nd;
          if (!queued[nbrs[i]]) {
            queued[nbrs[i]] = 1;
            next.push_back(nbrs[i]);
          }
        }
      }
    }
    changed.swap(next);
    record_iteration(result.metrics, "sssp_edge",
                     {round, coo.num_edges(), gg::Variant{}},
                     t_iter, dev.mark());
  }

  result.dist.resize(g.num_nodes);
  dev.memcpy_d2h(std::span<std::uint32_t>(result.dist), dist);

  dev.free(src);
  dev.free(dst);
  dev.free(wts);
  dev.free(dist);
  end_traversal(result.metrics, dev, t_begin);
  return result;
}

}  // namespace gg
