// The iteration loop of the frontier engines (paper Fig. 8) and its push
// launch shapes (paper Sec. IV.B, V). FrontierLoop, at the end of this
// file, runs every engine's loop: BFS, unordered SSSP, CC, PageRank, MST's
// find-min, the fused MS-BFS and SSSP batches and the generic operator
// engine.
//
// The computation kernel runs over a bitmap or queue working set, with
// thread, block or warp mapping (the last is Hong et al.'s
// virtual-warp-centric mapping [12], an extension). Each engine writes its
// per-element body once and launches it through launch_frontier, which
// picks the element each lane works on and how the element's adjacency is
// split:
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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "gpu_graph/device_graph.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "gpu_graph/persistent_run.h"
#include "gpu_graph/variant.h"
#include "gpu_graph/workset.h"
#include "graph/csr.h"
#include "simt/launch.h"

namespace gg {

// An engine's kernel name for each shape, the sites of the working-set
// accesses the shapes add around the element, and the sites of the update
// flag through which FrontierPush admits nodes. Each engine declares one
// constexpr table and passes it as a template argument, so the sites stay
// compile-time constants inside the lane loops; read from a run-time table
// they measurably slowed the simulator's host clock.
struct FrontierKernels {
  const char* t_bm;
  const char* t_qu;
  const char* b_bm;
  const char* b_qu;
  const char* w_bm;
  const char* w_qu;
  simt::Site queue_load;
  simt::Site bitmap_clear;
  simt::Site update_load;
  simt::Site update_store;
};

// Threads per block of block mapping: EngineOptions::block_tpb, or the
// paper's Sec. VII.A rule, the multiple of 32 closest to the average
// outdegree (at least 32, at most 1024).
inline std::uint32_t resolve_block_tpb(const EngineOptions& opts,
                                       double avg_outdegree) {
  if (opts.block_tpb) return opts.block_tpb;
  const double rounded =
      std::round(avg_outdegree / simt::kWarpSize) * simt::kWarpSize;
  return static_cast<std::uint32_t>(std::clamp(rounded, 32.0, 1024.0));
}

// The handle through which a push element admits a node to the next
// working set: the first lane to find the node's update flag clear sets it
// and appends the node to the host shadow of set flags (workset.h).
template <const FrontierKernels& k>
class FrontierPush {
 public:
  FrontierPush(simt::ThreadCtx& ctx, Workset& ws,
               std::vector<std::uint32_t>& updated)
      : ctx_(&ctx), ws_(&ws), updated_(&updated) {}

  void mark(std::uint32_t node) {
    if (ctx_->load(ws_->update(), node, k.update_load) == 0) {
      ctx_->store(ws_->update(), node, std::uint8_t{1}, k.update_store);
      updated_->push_back(node);
    }
  }

 private:
  simt::ThreadCtx* ctx_;
  Workset* ws_;
  std::vector<std::uint32_t>* updated_;
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

// One frontier traversal's loop (paper Fig. 8), written once for every
// engine. The engine builds the loop where it allocates its working set,
// makes the first decision into `variant`, seeds the working set and calls
// run() with an engine object: its push element and one hook for each
// thing only that engine does. Every iteration issues its device
// operations in this order:
//
//   1. before_compute(loop)                   MST best reset, MS-BFS depth,
//                                             PageRank residual snapshot
//   2. compute, one of
//      - host(loop), on a hybrid CPU phase    BFS, SSSP
//      - pull(loop), the termination readback and the frontier-bitmap
//        clear, when the variant pulls        BFS, SSSP, CC
//      - launch_frontier<k> of element(ctx, id, offset, step, push), the
//        persistent run's |WS| test, and the readback unless a run is open
//   3. after_compute(loop)                    MST hook..jump, MS-BFS mask
//                                             swap, BFS first-touch count
//   4. every monitor_interval iterations: the count kernel in bitmap form,
//      inputs(sel) and the selector, normalize_direction for engines with
//      a pull hook, check_kept, decided(loop, next, next_on_cpu) (BFS's
//      layout rule), the switch count
//   5. hybrid transfers of the state array at a CPU/device switch
//   6. relayout(loop, next)                   BFS layout switch
//   7. generation of the next working set, or clearing its flags on the
//      host in a CPU phase or a last iteration (MST: nothing merged)
//   8. record_iteration, then the frontier swap
//
// Hooks are optional and found at compile time, so the element and every
// hook inline into the loop. The engines with a pull hook are the
// direction-optimizing ones: only they pass the selector's pick through
// normalize_direction and report frontier_edges and the running direction
// to the selector. Hybrid CPU phases (EngineOptions::hybrid_cpu_threshold)
// run only for engines with a host hook, and turn persistent runs off.
template <const FrontierKernels& k>
class FrontierLoop {
 public:
  // `graph` is the layout the kernels run over, `dg` the upload of the
  // logical graph whose statistics the selector sees.
  FrontierLoop(simt::Device& dev, const graph::Csr& graph,
               const DeviceGraph& dg, const EngineOptions& opts,
               TraversalMetrics& metrics)
      : dev(dev),
        opts(opts),
        metrics(metrics),
        block_tpb(resolve_block_tpb(opts, dg.avg_outdegree)),
        graph(&graph),
        ws(dev, graph.num_nodes, opts.scan_queue_gen) {
    sel.avg_outdegree = dg.avg_outdegree;
    sel.outdeg_stddev = dg.outdeg_stddev;
    sel.num_nodes = dg.num_nodes;
  }

  // Seeds the working set with one source node in `variant.repr` form.
  void seed_source(std::uint32_t source) {
    ws.init_source(dev, source, variant.repr);
    frontier = {source};
  }

  // Seeds the working set with `nodes` through the generation kernel, from
  // update flags set on the host (or already seeded by the engine).
  void seed(std::vector<std::uint32_t> nodes) {
    frontier = std::move(nodes);
    std::sort(frontier.begin(), frontier.end());
    for (const std::uint32_t v : frontier) ws.update().host_view()[v] = 1;
    ws.generate(dev, variant.repr, frontier);
  }

  // A host phase's admission of `node` to the next working set.
  void admit(std::uint32_t node) {
    std::uint8_t& flag = ws.update().host_view()[node];
    if (flag == 0) {
      flag = 1;
      updated.push_back(node);
    }
  }

  // Downloads the state array `state` into `out`, after run(). A hybrid run
  // that ended in a CPU phase already holds it on the host, so no download
  // is charged then.
  void download(const simt::DeviceBuffer<std::uint32_t>& state,
                std::span<std::uint32_t> out) {
    if (on_cpu) {
      const auto view = state.host_view();
      std::copy(view.begin(),
                view.begin() + static_cast<std::ptrdiff_t>(out.size()),
                out.begin());
    } else {
      dev.memcpy_d2h(out, state);
    }
  }

  // Iterates until the working set is empty. `algo` labels the iteration
  // records; more than opts.max_iterations iterations (`default_limit`
  // when 0) fail "<algo> failed to converge". A nonzero `bound` lets
  // iterations run inside persistent kernels named `persistent_kernel`.
  template <typename Engine>
  void run(Engine& engine, const char* algo, const VariantSelector& selector,
           std::uint64_t default_limit, const PersistentBound& bound = {},
           const char* persistent_kernel = nullptr) {
    constexpr bool pulls = requires { engine.pull(*this); };
    constexpr bool hosts = requires { engine.host(*this); };
    const std::uint64_t limit =
        opts.max_iterations ? opts.max_iterations : default_limit;
    const bool hybrid = hosts && opts.hybrid_cpu_threshold > 0;
    on_cpu = hybrid && frontier.size() < opts.hybrid_cpu_threshold;
    if (on_cpu) {
      // Entering a CPU phase: download the state array (Hong et al.
      // [13]-style hybrid execution keeps host and device copies in sync
      // at switches).
      dev.account_transfer(4ull * graph->num_nodes, /*to_device=*/false);
    }
    PersistentRuns runs(dev, hybrid ? PersistentBound{} : bound, algo,
                        persistent_kernel, block_tpb);

    while (!frontier.empty()) {
      ++iteration;
      AGG_CHECK_MSG(iteration <= limit,
                    (std::string(algo) + " failed to converge").c_str());
      IterationClock t_iter{dev.mark()};
      runs.enter(variant, on_cpu, frontier.size(), iteration, metrics);
      if constexpr (requires { engine.before_compute(*this); }) {
        engine.before_compute(*this);
      }

      std::uint64_t frontier_edges = 0;
      for (const std::uint32_t v : frontier) frontier_edges += graph->degree(v);
      metrics.edges_processed += frontier_edges;

      if (on_cpu) {
        if constexpr (hosts) {
          // Serial host processing of a small frontier: no kernel launches,
          // no readbacks.
          engine.host(*this);
          dev.account_host_compute(
              (static_cast<double>(frontier.size()) *
                   opts.hybrid_cpu_cycles_per_node +
               static_cast<double>(frontier_edges) *
                   opts.hybrid_cpu_cycles_per_edge) /
              (opts.hybrid_cpu_clock_ghz * 1e3));
        }
      } else if (pulls && variant.direction == Direction::pull) {
        if constexpr (pulls) {
          // Gather iteration, then wipe the consumed frontier bits: pull
          // kernels cannot clear them in-kernel, every in-edge scan reads
          // them.
          engine.pull(*this);
          ws.charge_termination_readback(dev);
          ws.clear_frontier_bitmap(dev, frontier);
        }
      } else {
        launch_frontier<k>(
            dev, variant, ws, frontier, opts.thread_tpb, block_tpb,
            [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
                std::uint32_t step) {
              FrontierPush<k> push(ctx, ws, updated);
              engine.element(ctx, id, offset, step, push);
            });
        runs.test(updated.size(), iteration, metrics, t_iter);
        // Per-iteration termination signal (Fig. 8 line 4); inside a
        // persistent run the device tests |WS| itself.
        if (!runs.open()) ws.charge_termination_readback(dev);
      }
      std::sort(updated.begin(), updated.end());
      if constexpr (requires { engine.after_compute(*this); }) {
        engine.after_compute(*this);
      }

      const bool next_on_cpu =
          hybrid && updated.size() < opts.hybrid_cpu_threshold;
      // Decision point (Sec. VI.E): sampled working-set monitoring and the
      // selector.
      Variant next = variant;
      if (opts.monitor_interval > 0 &&
          iteration % opts.monitor_interval == 0) {
        if (!on_cpu && variant.repr == WorksetRepr::bitmap) {
          ws.charge_bitmap_count_kernel(dev);  // queue: size known from tail
        }
        sel.iteration = iteration;
        sel.ws_size = updated.size();
        if constexpr (pulls) {
          sel.frontier_edges = 0;
          for (const std::uint32_t v : updated) {
            sel.frontier_edges += graph->degree(v);
          }
          sel.direction = variant.direction;
        }
        if constexpr (requires { engine.inputs(sel); }) engine.inputs(sel);
        ++metrics.decisions;
        next = selector(sel);
        if constexpr (pulls) next = normalize_direction(next);
        next.ordering = variant.ordering;  // fixed per traversal
        runs.check_kept(next, variant);
        if constexpr (requires { engine.decided(*this, next, next_on_cpu); }) {
          engine.decided(*this, next, next_on_cpu);
        }
        if (!on_cpu && next != variant) ++metrics.switches;
      }

      // Host phases are scalar scatter loops; direction only applies on
      // device. A switch syncs the state array across PCIe, and entering
      // the device re-materializes the update vector before generation.
      if (next_on_cpu) next.direction = Direction::push;
      if (on_cpu != next_on_cpu) {
        dev.account_transfer(4ull * graph->num_nodes, /*to_device=*/!next_on_cpu);
        if (!next_on_cpu) {
          dev.account_transfer(graph->num_nodes, /*to_device=*/true);
        }
      }
      if constexpr (requires { engine.relayout(*this, next); }) {
        engine.relayout(*this, next);
      }

      if (!next_on_cpu && !last) {
        if (!updated.empty()) ws.generate(dev, next.repr, updated);
      } else {
        // The host owns the state: clear the flags functionally.
        for (const std::uint32_t v : updated) ws.update().host_view()[v] = 0;
      }
      runs.record(metrics, {iteration, frontier.size(), variant, 0, on_cpu},
                  t_iter, dev.mark());
      if (last) break;
      frontier.swap(updated);
      updated.clear();
      variant = next;
      on_cpu = next_on_cpu;
    }
  }

  simt::Device& dev;
  const EngineOptions& opts;
  TraversalMetrics& metrics;
  const std::uint32_t block_tpb;
  const graph::Csr* graph;  // the running layout (BFS's relayout moves it)
  Workset ws;
  // Inputs of the next decision; the engine adds its own before the first.
  SelectorInput sel;
  Variant variant;  // the running variant; the engine makes the first pick
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> updated;  // sorted after the compute phase
  std::uint32_t iteration = 0;
  bool on_cpu = false;  // this iteration is a hybrid CPU phase
  bool last = false;    // set by after_compute: stop after this iteration
};

}  // namespace gg
