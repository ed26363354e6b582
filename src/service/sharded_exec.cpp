#include "service/sharded_exec.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/adaptive_engine.h"
#include "simt/launch.h"

namespace svc {

namespace {

// Modeled cost of a host-side merge step between supersteps: one core
// touching `items` entries. Matches the order of magnitude of the CPU cost
// model without pulling in algorithm-specific counters.
constexpr double kMergeBaseUs = 2.0;
constexpr double kMergePerItemUs = 0.004;  // ~250M items/s

double merge_cost_us(std::uint64_t items) {
  return kMergeBaseUs + static_cast<double>(items) * kMergePerItemUs;
}

double max_ready_us(simt::Fleet& fleet, const ShardedGraph& sg,
                    const std::vector<simt::StreamId>& streams) {
  double t = 0;
  for (std::size_t i = 0; i < sg.shards.size(); ++i) {
    t = std::max(t, fleet.device(sg.shards[i].device).stream_ready_us(streams[i]));
  }
  return t;
}

// BSP barrier: streams on different simulated devices have no hardware sync,
// so the host models the wait by padding every lagging stream to `barrier`.
void sync_to(simt::Fleet& fleet, const ShardedGraph& sg,
             const std::vector<simt::StreamId>& streams, double barrier) {
  for (std::size_t i = 0; i < sg.shards.size(); ++i) {
    simt::Device& dev = fleet.device(sg.shards[i].device);
    const double ready = dev.stream_ready_us(streams[i]);
    if (ready < barrier) {
      simt::StreamGuard guard(dev, streams[i]);
      dev.account_host_compute(barrier - ready);
    }
  }
}

}  // namespace

ShardedGraph make_sharded(simt::Fleet& fleet, const graph::Csr& g,
                          bool with_weights, const PlacementPlan& plan) {
  AGG_CHECK(plan.kind == PlacementPlan::Kind::sharded && !plan.shards.empty());
  ShardedGraph sg;
  sg.num_nodes = g.num_nodes;
  sg.with_weights = with_weights && g.has_weights();
  sg.shards.reserve(plan.shards.size());
  for (const ShardRange& r : plan.shards) {
    Shard sh;
    sh.device = r.device;
    sh.row_begin = r.row_begin;
    sh.row_end = r.row_end;
    sh.csr = shard_slice(g, r.row_begin, r.row_end);
    sh.dg = gg::DeviceGraph::upload(fleet.device(r.device), sh.csr,
                                    sg.with_weights);
    sg.shards.push_back(std::move(sh));
  }
  return sg;
}

void release_sharded(simt::Fleet& fleet, ShardedGraph& sg) {
  for (Shard& sh : sg.shards) {
    simt::Device& dev = fleet.device(sh.device);
    sh.dg.release(dev);
    if (sh.sym_dg) {
      sh.sym_dg->release(dev);
      sh.sym_dg.reset();
    }
  }
  sg.shards.clear();
}

ShardedRun sharded_bfs(simt::Fleet& fleet, ShardedGraph& sg,
                       graph::NodeId source,
                       const std::vector<simt::StreamId>& streams,
                       double not_before_us,
                       std::vector<std::uint32_t>& levels) {
  AGG_CHECK(streams.size() == sg.shards.size());
  const std::uint32_t n = sg.num_nodes;
  AGG_CHECK(source < n);
  const std::size_t k = sg.shards.size();
  ShardedRun run;

  levels.assign(n, graph::kInfinity);
  levels[source] = 0;

  // Per-shard device state: a device-local level array (dedup of this
  // device's own discoveries), an H2D frontier slice, and a candidate queue.
  struct DevState {
    simt::DeviceBuffer<std::uint32_t> level;
    simt::DeviceBuffer<std::uint32_t> frontier;
    simt::DeviceBuffer<std::uint32_t> next;
    simt::DeviceBuffer<std::uint32_t> next_count;
  };
  std::vector<DevState> st(k);

  double barrier = std::max(not_before_us,
                            max_ready_us(fleet, sg, streams));
  sync_to(fleet, sg, streams, barrier);
  run.start_us = barrier;

  for (std::size_t i = 0; i < k; ++i) {
    simt::Device& dev = fleet.device(sg.shards[i].device);
    simt::StreamGuard guard(dev, streams[i]);
    st[i].level = dev.alloc<std::uint32_t>(n, "shard.bfs.level");
    dev.fill(st[i].level, graph::kInfinity);
    dev.write_scalar(st[i].level, source, 0u);
    st[i].frontier = dev.alloc<std::uint32_t>(n, "shard.bfs.frontier");
    st[i].next = dev.alloc<std::uint32_t>(n, "shard.bfs.next");
    st[i].next_count = dev.alloc<std::uint32_t>(1, "shard.bfs.next_count");
  }

  std::vector<graph::NodeId> frontier{source};
  std::vector<std::vector<graph::NodeId>> slices(k);
  std::vector<std::vector<std::uint32_t>> cands(k);
  std::uint32_t cur = 0;

  while (!frontier.empty()) {
    // Partition the frontier by owning shard (contiguous row ranges).
    for (auto& s : slices) s.clear();
    for (const graph::NodeId u : frontier) {
      for (std::size_t i = 0; i < k; ++i) {
        if (u >= sg.shards[i].row_begin && u < sg.shards[i].row_end) {
          slices[i].push_back(u);
          break;
        }
      }
    }

    // Superstep: every owner expands its slice and queues candidates that
    // are new to *its* local level array; cross-device duplicates are
    // resolved by the host merge below.
    const std::uint32_t next_level = cur + 1;
    std::uint64_t total_cands = 0;
    for (std::size_t i = 0; i < k; ++i) {
      cands[i].clear();
      if (slices[i].empty()) continue;
      Shard& sh = sg.shards[i];
      simt::Device& dev = fleet.device(sh.device);
      simt::StreamGuard guard(dev, streams[i]);
      dev.memcpy_h2d(st[i].frontier,
                     std::span<const std::uint32_t>(slices[i]));
      dev.write_scalar(st[i].next_count, 0, 0u);
      const std::uint64_t slice_n = slices[i].size();
      DevState& ds = st[i];
      simt::launch(
          dev, "shard.bfs_expand", simt::GridSpec::dense(slice_n, 256),
          [&](simt::ThreadCtx& t) {
            constexpr simt::Site kF{0, "frontier"};
            constexpr simt::Site kRow{1, "row_offsets"};
            constexpr simt::Site kCol{2, "col_indices"};
            constexpr simt::Site kLvl{3, "level"};
            constexpr simt::Site kMark{4, "level_store"};
            constexpr simt::Site kCnt{5, "next_count"};
            constexpr simt::Site kQ{6, "next_queue"};
            const std::uint64_t gid = t.global_id();
            if (gid >= slice_n) return;
            const std::uint32_t u = t.load(ds.frontier, gid, kF);
            const std::uint32_t beg = t.load(sh.dg.row_offsets, u, kRow);
            const std::uint32_t end = t.load(sh.dg.row_offsets, u + 1, kRow);
            for (std::uint32_t e = beg; e < end; ++e) {
              const std::uint32_t v = t.load(sh.dg.col_indices, e, kCol);
              if (t.load(ds.level, v, kLvl) == graph::kInfinity) {
                t.store(ds.level, v, next_level, kMark);
                const std::uint32_t pos =
                    t.atomic_add(ds.next_count, 0, 1u, kCnt);
                t.store(ds.next, pos, v, kQ);
              }
            }
          });
      const std::uint32_t cnt = dev.read_scalar(st[i].next_count);
      if (cnt > 0) {
        cands[i].resize(cnt);
        dev.memcpy_d2h(std::span<std::uint32_t>(cands[i]), st[i].next);
      }
      total_cands += cnt;
    }

    // Host merge: dedup candidates against the global level array (a vertex
    // reachable from two shards is discovered on both devices) and form the
    // next frontier. Shard order then queue order — deterministic.
    frontier.clear();
    for (std::size_t i = 0; i < k; ++i) {
      for (const std::uint32_t v : cands[i]) {
        if (levels[v] == graph::kInfinity) {
          levels[v] = next_level;
          frontier.push_back(v);
        }
      }
    }

    barrier = max_ready_us(fleet, sg, streams) + merge_cost_us(total_cands);
    sync_to(fleet, sg, streams, barrier);
    ++cur;
    ++run.supersteps;
  }

  for (std::size_t i = 0; i < k; ++i) {
    simt::Device& dev = fleet.device(sg.shards[i].device);
    dev.free(st[i].level);
    dev.free(st[i].frontier);
    dev.free(st[i].next);
    dev.free(st[i].next_count);
  }
  run.finish_us = barrier;
  return run;
}

ShardedRun sharded_cc(simt::Fleet& fleet, ShardedGraph& sg,
                      const std::vector<simt::StreamId>& streams,
                      double not_before_us, const adaptive::Policy& policy,
                      std::vector<std::uint32_t>& component,
                      std::uint32_t& num_components) {
  AGG_CHECK(streams.size() == sg.shards.size());
  const std::uint32_t n = sg.num_nodes;
  const std::size_t k = sg.shards.size();
  ShardedRun run;

  double barrier = std::max(not_before_us, max_ready_us(fleet, sg, streams));
  sync_to(fleet, sg, streams, barrier);
  run.start_us = barrier;

  // Each shard solves its local symmetric closure with the resident CC
  // engine; the per-device runs overlap on the modeled clock (one stream per
  // device, all starting at the barrier). The slices keep their plain
  // layout: a device that holds only a slice has no room for a second one,
  // so a fixed variant runs on it whatever its representation.
  const bool fixed = policy.mode == adaptive::Policy::Mode::fixed_variant;
  rt::AdaptiveOptions ao = policy.options;
  ao.representation = gg::Representation::plain;
  ao.persistent = true;
  std::vector<gg::GpuCcResult> results(k);
  for (std::size_t i = 0; i < k; ++i) {
    Shard& sh = sg.shards[i];
    simt::Device& dev = fleet.device(sh.device);
    simt::StreamGuard guard(dev, streams[i]);
    if (!sh.sym_dg) {
      if (sh.sym_csr.num_nodes == 0) sh.sym_csr = graph::symmetrize(sh.csr);
      sh.sym_dg = gg::DeviceGraph::upload(dev, sh.sym_csr,
                                          /*with_weights=*/false);
    }
    ao.engine.stream = streams[i];
    results[i] = fixed ? gg::run_cc(dev, *sh.sym_dg, sh.sym_csr,
                                    gg::fixed_variant(policy.variant), ao.engine)
                       : rt::adaptive_cc(dev, *sh.sym_dg, sh.sym_csr, ao);
  }

  // Host union-find merge: union every vertex with its per-shard label.
  // Roots are kept at the smallest member id, so component[v] = find(v)
  // reproduces the engines' canonical smallest-id labeling exactly.
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t v = 0; v < n; ++v) parent[v] = v;
  const auto find = [&parent](std::uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  for (const gg::GpuCcResult& r : results) {
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t a = find(v);
      const std::uint32_t b = find(r.component[v]);
      if (a < b) {
        parent[b] = a;
      } else if (b < a) {
        parent[a] = b;
      }
    }
  }
  component.assign(n, 0);
  num_components = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    component[v] = find(v);
    if (component[v] == v) ++num_components;
  }

  barrier = max_ready_us(fleet, sg, streams) +
            merge_cost_us(static_cast<std::uint64_t>(k) * n + n);
  sync_to(fleet, sg, streams, barrier);
  run.finish_us = barrier;
  run.supersteps = 1;
  return run;
}

}  // namespace svc
