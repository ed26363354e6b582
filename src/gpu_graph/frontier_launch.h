// The push launch shapes of the frontier engines (paper Sec. IV.B, V): the
// computation kernel over a bitmap or queue working set, with thread, block
// or warp mapping (the last is Hong et al.'s virtual-warp-centric mapping
// [12], an extension). Each engine writes its per-element body once and
// launches it through launch_frontier, which picks the element each lane
// works on and how the element's adjacency is split:
//
//   element(ctx, id, offset, step)
//
// visits the adjacency as `for (e = begin + offset; e < end; e += step)`.
// A mapping groups `width` lanes per element (thread 1, block block_tpb,
// warp 32), and lane i of a group gets offset i and step width:
//
//   T_BM  over_threads(n, thread_tpb)        id = global_id
//   B_BM  over_blocks(n, block_tpb)          id = block_idx
//   W_BM  over_blocks(n, 32)                 id = block_idx
//   T_QU  dense(|F|, thread_tpb)             id = queue[global_id]
//   B_QU  dense(|F| * block_tpb, block_tpb)  id = queue[block_idx]
//   W_QU  dense(|F| * 32, thread_tpb)        id = queue[global_id / 32]
//
// The bitmap grids span the working set's n nodes and run only the threads
// or blocks of `frontier`; before the element runs, the node's bitmap bit is
// cleared by its lane (thread mapping) or by lane 0 of its block.
#pragma once

#include <cstdint>
#include <span>

#include "gpu_graph/variant.h"
#include "gpu_graph/workset.h"
#include "simt/launch.h"

namespace gg {

// An engine's kernel name for each shape, and the sites of the working-set
// accesses the shapes add around the element. Each engine declares one
// constexpr table and passes it as launch_frontier's template argument, so
// the sites stay compile-time constants inside the lane loops; read from a
// run-time table they measurably slowed the simulator's host clock.
struct FrontierKernels {
  const char* t_bm;
  const char* t_qu;
  const char* b_bm;
  const char* b_qu;
  const char* w_bm;
  const char* w_qu;
  simt::Site queue_load;
  simt::Site bitmap_clear;
};

template <const FrontierKernels& k, typename Element>
void launch_frontier(simt::Device& dev, Variant v, Workset& ws,
                     std::span<const std::uint32_t> frontier,
                     std::uint32_t thread_tpb, std::uint32_t block_tpb,
                     Element&& element) {
  const bool thread = v.mapping == Mapping::thread;
  const bool block = v.mapping == Mapping::block;

  if (v.repr == WorksetRepr::queue) {
    if (thread) {
      const auto grid = simt::GridSpec::dense(frontier.size(), thread_tpb);
      simt::launch(dev, k.t_qu, grid, [&](simt::ThreadCtx& ctx) {
        const std::uint32_t id =
            ctx.load(ws.queue(), ctx.global_id(), k.queue_load);
        element(ctx, id, 0u, 1u);
      });
    } else if (block) {
      const auto grid =
          simt::GridSpec::dense(frontier.size() * block_tpb, block_tpb);
      simt::launch(dev, k.b_qu, grid, [&](simt::ThreadCtx& ctx) {
        const std::uint32_t id =
            ctx.load(ws.queue(), ctx.block_idx(), k.queue_load);
        element(ctx, id, ctx.thread_in_block(), block_tpb);
      });
    } else {
      const auto grid = simt::GridSpec::dense(
          frontier.size() * simt::kWarpSize, thread_tpb);
      simt::launch(dev, k.w_qu, grid, [&](simt::ThreadCtx& ctx) {
        const std::uint64_t lane = ctx.global_id();
        const std::uint32_t id =
            ctx.load(ws.queue(), lane / simt::kWarpSize, k.queue_load);
        element(ctx, id, static_cast<std::uint32_t>(lane % simt::kWarpSize),
                simt::kWarpSize);
      });
    }
    return;
  }

  simt::Predicate pred;
  pred.base_addr = ws.bitmap().base_addr();
  pred.stride = 1;
  pred.ops = 2;
  if (thread) {
    const auto grid =
        simt::GridSpec::over_threads(ws.num_nodes(), thread_tpb, frontier, pred);
    simt::launch(dev, k.t_bm, grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      ctx.store(ws.bitmap(), id, std::uint8_t{0}, k.bitmap_clear);
      element(ctx, id, 0u, 1u);
    });
    return;
  }
  const std::uint32_t width = block ? block_tpb : simt::kWarpSize;
  const auto grid =
      simt::GridSpec::over_blocks(ws.num_nodes(), width, frontier, pred);
  simt::launch(dev, block ? k.b_bm : k.w_bm, grid, [&](simt::ThreadCtx& ctx) {
    const auto id = static_cast<std::uint32_t>(ctx.block_idx());
    if (ctx.thread_in_block() == 0) {
      ctx.store(ws.bitmap(), id, std::uint8_t{0}, k.bitmap_clear);
    }
    element(ctx, id, ctx.thread_in_block(), width);
  });
}

}  // namespace gg
