// Kernel launch drivers.
//
// Three launch shapes cover every kernel in the library:
//
//  * launch(dense)          — every thread of the grid runs the body; used
//    when the grid is sized to the work (queue-based working sets).
//  * launch (sparse threads) — the grid spans `total_threads` ids but only a
//    sorted subset executes the body (bitmap working sets with thread
//    mapping). Predicate-only warps are accounted analytically; partially
//    active warps record the predicate access for all lanes, so coalescing
//    and divergence of the bitmap check are modeled exactly.
//  * launch (sparse blocks) — one block per element id; inactive blocks pay
//    the broadcast predicate load (bitmap working sets with block mapping).
//
// launch_phased adds BSP-style phases (each boundary = __syncthreads()) and
// per-block shared memory, used by the reduction/scan primitives and the
// working-set population counter.
//
// Blocks run in block order on the calling host thread: the engine kernels'
// traced control flow depends on what earlier blocks wrote (DESIGN.md
// "Blocks run in block order"). Each executed block's costs are summed into
// a BlockPartial, which is folded into the launch totals as soon as the block
// ends, so floating-point association is fixed by the block structure alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/check.h"
#include "simt/device.h"
#include "simt/kernel.h"
#include "simt/timing_model.h"

namespace simt {

struct GridSpec {
  std::uint64_t total_threads = 0;
  std::uint32_t tpb = 256;
  std::span<const std::uint32_t> active_threads{};
  std::span<const std::uint32_t> active_blocks{};
  bool sparse_threads = false;
  bool sparse_blocks = false;
  Predicate pred{};

  static GridSpec dense(std::uint64_t total, std::uint32_t tpb) {
    GridSpec g;
    g.total_threads = total;
    g.tpb = tpb;
    return g;
  }
  // Grid of `total` threads; only `active` (sorted, unique) run the body.
  static GridSpec over_threads(std::uint64_t total, std::uint32_t tpb,
                               std::span<const std::uint32_t> active, Predicate pred) {
    GridSpec g;
    g.total_threads = total;
    g.tpb = tpb;
    g.active_threads = active;
    g.sparse_threads = true;
    g.pred = pred;
    return g;
  }
  // Grid of `total_blocks` blocks of `tpb` threads; only `active` blocks
  // (sorted, unique) run the body.
  static GridSpec over_blocks(std::uint64_t total_blocks, std::uint32_t tpb,
                              std::span<const std::uint32_t> active, Predicate pred) {
    GridSpec g;
    AGG_CHECK(tpb >= 1 &&
              total_blocks <= std::numeric_limits<std::uint64_t>::max() / tpb);
    g.total_threads = total_blocks * tpb;
    g.tpb = tpb;
    g.active_blocks = active;
    g.sparse_blocks = true;
    g.pred = pred;
    return g;
  }

  std::uint64_t blocks() const { return (total_threads + tpb - 1) / tpb; }
};

namespace detail {

// Analytic cost of one warp that only evaluates the working-set predicate.
WarpCost predicate_warp_cost(const TimingModel& tm, const Predicate& pred,
                             bool broadcast);

struct LaunchTotals {
  KernelStats stats;

  void add_warp(const WarpCost& wc, std::uint64_t count = 1, bool executed = true) {
    const auto k = static_cast<double>(count);
    stats.issue_cycles += wc.issue_cycles * k;
    stats.mem_instrs += wc.mem_instrs * k;
    stats.transactions += wc.transactions * k;
    stats.atomics += wc.atomics * k;
    stats.lane_work += wc.lane_work * k;
    stats.lockstep_work += wc.lockstep_work * k;
    (executed ? stats.warps_executed : stats.warps_uniform) += count;
  }

  void merge(const LaunchTotals& o) {
    stats.issue_cycles += o.stats.issue_cycles;
    stats.mem_instrs += o.stats.mem_instrs;
    stats.transactions += o.stats.transactions;
    stats.atomics += o.stats.atomics;
    stats.lane_work += o.stats.lane_work;
    stats.lockstep_work += o.stats.lockstep_work;
    stats.warps_executed += o.stats.warps_executed;
    stats.warps_uniform += o.stats.warps_uniform;
  }
};

// The summed costs of one executed block, folded into the launch totals in
// block order.
struct BlockPartial {
  LaunchTotals totals;
  double issue = 0;
  double crit = 0;

  void add_warp(const WarpCost& wc, const TimingModel& tm, bool executed = true) {
    issue += wc.issue_cycles;
    crit = std::max(crit, wc.critical_cycles(tm));
    totals.add_warp(wc, 1, executed);
  }
};

// Tracing scratch for the launches of one host thread (launch.cpp holds one
// per thread), reused across launches to avoid allocation churn.
struct LaunchScratch {
  WarpTrace trace;
  AtomicTally tally;
  BlockSharedState shared;
};

// The calling thread's scratch, rebound to `tm`, with its tally reset.
LaunchScratch& launch_scratch(const TimingModel& tm);

}  // namespace detail

// Dense / sparse-threads / sparse-blocks launch of `body(ThreadCtx&)`.
template <typename Body>
KernelStats launch(Device& dev, const char* name, const GridSpec& grid, Body&& body) {
  const DeviceProps& props = dev.props();
  const TimingModel& tm = dev.timing();
  AGG_CHECK(grid.tpb >= 1 && grid.tpb <= static_cast<std::uint32_t>(props.max_threads_per_block));

  detail::LaunchTotals totals;
  totals.stats.name = name;
  totals.stats.total_threads = grid.total_threads;
  totals.stats.blocks = grid.blocks();
  const std::uint64_t grid_blocks = totals.stats.blocks;

  WaveAccumulator waves(props, tm, grid.tpb);
  const std::uint32_t warps_per_block = (grid.tpb + kWarpSize - 1) / kWarpSize;
  const WarpCost pred_wc =
      detail::predicate_warp_cost(tm, grid.pred, /*broadcast=*/grid.sparse_blocks);
  const double pred_block_issue = pred_wc.issue_cycles * warps_per_block;
  const double pred_block_crit = pred_wc.critical_cycles(tm);
  detail::LaunchScratch& ws = detail::launch_scratch(tm);

  // Runs the 32 lanes [warp_begin, warp_begin+32) of block b into `part`;
  // `is_active` decides per-lane whether the body runs.
  auto run_warp = [&](detail::BlockPartial& part, std::uint64_t b,
                      std::uint64_t warp_begin, auto&& is_active, auto&& lane_addr) {
    ws.trace.begin_warp();
    ThreadCtx ctx(ws.trace, nullptr, b, grid.tpb, grid_blocks);
    const std::uint64_t warp_end =
        std::min<std::uint64_t>(warp_begin + kWarpSize, grid.total_threads);
    const std::uint64_t block_base = b * grid.tpb;
    for (std::uint64_t gid = warp_begin; gid < warp_end; ++gid) {
      ctx.bind_lane(static_cast<std::uint32_t>(gid - block_base));
      if (grid.pred.enabled()) {
        ws.trace.on_global(kPredicateSite, lane_addr(gid));
        ws.trace.on_compute(kPredicateOpsSite,
                            static_cast<std::uint64_t>(grid.pred.ops));
      }
      if (is_active(gid)) body(ctx);
    }
    part.add_warp(ws.trace.finish_warp(ws.tally), tm);
  };
  auto warps_in = [&](std::uint64_t b) {
    const std::uint64_t block_threads =
        std::min<std::uint64_t>(grid.tpb, grid.total_threads - b * grid.tpb);
    return static_cast<std::uint32_t>((block_threads + kWarpSize - 1) / kWarpSize);
  };
  // Blocks are folded in block order: the predicate-only blocks
  // [next_block, b), then block b.
  std::uint64_t next_block = 0;
  auto fold_uniform = [&](std::uint64_t b) {
    if (b <= next_block) return;
    waves.add_uniform_blocks(b - next_block, pred_block_issue, pred_block_crit);
    totals.add_warp(pred_wc, (b - next_block) * warps_per_block, /*executed=*/false);
  };
  auto fold_block = [&](std::uint64_t b, const detail::BlockPartial& part) {
    fold_uniform(b);
    totals.merge(part.totals);
    waves.add_block(b, part.issue, part.crit);
    next_block = b + 1;
  };
  // Runs every lane of block b.
  auto run_block = [&](std::uint64_t b, auto&& lane_addr) {
    detail::BlockPartial part;
    for (std::uint32_t w = 0, nw = warps_in(b); w < nw; ++w) {
      run_warp(part, b, b * grid.tpb + static_cast<std::uint64_t>(w) * kWarpSize,
               [](std::uint64_t) { return true; }, lane_addr);
    }
    fold_block(b, part);
  };

  if (grid.sparse_threads) {
    const auto& active = grid.active_threads;
    std::size_t i = 0;
    while (i < active.size()) {
      // The slice [i, end) of the sorted active-thread list falls in block b.
      const std::uint64_t b = active[i] / grid.tpb;
      AGG_DCHECK(b >= next_block);
      std::size_t end = i;
      while (end < active.size() && active[end] / grid.tpb == b) {
        AGG_DCHECK(end == i || active[end] > active[end - 1]);
        ++end;
      }
      detail::BlockPartial part;
      std::size_t cursor = i;
      for (std::uint32_t w = 0, nw = warps_in(b); w < nw; ++w) {
        const std::uint64_t warp_begin =
            b * grid.tpb + static_cast<std::uint64_t>(w) * kWarpSize;
        const std::uint64_t warp_end =
            std::min<std::uint64_t>(warp_begin + kWarpSize, grid.total_threads);
        if (cursor == end || active[cursor] >= warp_end) {
          part.add_warp(pred_wc, tm, /*executed=*/false);
          continue;
        }
        run_warp(
            part, b, warp_begin,
            [&](std::uint64_t gid) {
              if (cursor < end && active[cursor] == gid) {
                ++cursor;
                return true;
              }
              return false;
            },
            [&](std::uint64_t gid) {
              return grid.pred.base_addr +
                     (gid >> grid.pred.id_shift) * grid.pred.stride;
            });
      }
      fold_block(b, part);
      i = end;
    }
  } else if (grid.sparse_blocks) {
    const auto& active = grid.active_blocks;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::uint64_t b = active[k];
      AGG_DCHECK(k == 0 || b > active[k - 1]);
      AGG_DCHECK(b < grid_blocks);
      run_block(b, [&](std::uint64_t) { return grid.pred.base_addr + b * grid.pred.stride; });
    }
  } else {
    for (std::uint64_t b = 0; b < grid_blocks; ++b) {
      run_block(b, [](std::uint64_t) { return 0ull; });
    }
  }
  fold_uniform(grid_blocks);

  totals.stats.max_atomic_same_addr = ws.tally.max_count();
  assemble_kernel_time(props, tm, waves.finish_cycles(), totals.stats);
  dev.account_kernel(totals.stats);
  return totals.stats;
}

// Dense phased launch: body(phase, ctx) runs for every thread, phase by
// phase; each phase boundary is a block-wide barrier. Shared memory persists
// across phases within a block.
template <typename Body>
KernelStats launch_phased(Device& dev, const char* name, std::uint64_t total_threads,
                          std::uint32_t tpb, int phases, Body&& body) {
  const DeviceProps& props = dev.props();
  const TimingModel& tm = dev.timing();
  AGG_CHECK(tpb >= 1 && tpb <= static_cast<std::uint32_t>(props.max_threads_per_block));

  detail::LaunchTotals totals;
  totals.stats.name = name;
  totals.stats.total_threads = total_threads;
  totals.stats.blocks = (total_threads + tpb - 1) / tpb;
  const std::uint64_t grid_blocks = totals.stats.blocks;

  WaveAccumulator waves(props, tm, tpb);
  detail::LaunchScratch& ws = detail::launch_scratch(tm);
  for (std::uint64_t b = 0; b < grid_blocks; ++b) {
    detail::BlockPartial part;
    ws.shared.reset(props.shared_mem_per_block);
    ThreadCtx ctx(ws.trace, &ws.shared, b, tpb, grid_blocks);
    const std::uint64_t block_base = b * tpb;
    const std::uint64_t block_threads =
        std::min<std::uint64_t>(tpb, total_threads - block_base);
    for (int p = 0; p < phases; ++p) {
      double phase_crit = 0;
      for (std::uint64_t warp_begin = 0; warp_begin < block_threads;
           warp_begin += kWarpSize) {
        ws.trace.begin_warp();
        const std::uint64_t warp_end =
            std::min<std::uint64_t>(warp_begin + kWarpSize, block_threads);
        for (std::uint64_t t = warp_begin; t < warp_end; ++t) {
          ctx.bind_lane(static_cast<std::uint32_t>(t));
          body(p, ctx);
        }
        const WarpCost wc = ws.trace.finish_warp(ws.tally);
        part.issue += wc.issue_cycles;
        phase_crit = std::max(phase_crit, wc.critical_cycles(tm));
        part.totals.add_warp(wc);
      }
      part.crit += phase_crit;  // barrier: phases serialize on the slowest warp
    }
    totals.merge(part.totals);
    waves.add_block(b, part.issue, part.crit);
  }

  totals.stats.max_atomic_same_addr = ws.tally.max_count();
  assemble_kernel_time(props, tm, waves.finish_cycles(), totals.stats);
  dev.account_kernel(totals.stats);
  return totals.stats;
}

}  // namespace simt
