// The decision maker (paper Sec. VI.B-VI.D, Fig. 11).
//
// Given the runtime attributes — working-set size |WS| and the graph's
// average outdegree — selects one of the four unordered implementations:
//
//      avg outdegree
//        ^
//        |   B_QU      B_QU        B_BM
//   T1 --+           ----------+----------
//        |   B_QU      T_QU    |   T_BM
//        +---------+-----------+-----------> |WS|
//                  T2          T3
//
//  * T1 = warp size: below it, block mapping underutilizes the cores of an
//    SM during the cooperative neighborhood visit;
//  * T2 = thread_tpb x num_SMs: below it, thread mapping cannot put work on
//    every SM, so block mapping is always preferred (B_QU region);
//  * T3 = fraction of the node count: above it, the bitmap's wasted-thread
//    fraction (1 - |WS|/N) is low enough to beat the queue's atomic
//    serialization.
#pragma once

#include <cstdint>
#include <span>

#include "gpu_graph/engine_common.h"
#include "gpu_graph/variant.h"
#include "simt/device_props.h"

namespace rt {

struct Thresholds {
  double t1_avg_outdegree = 32.0;
  double t2_ws_size = 2688.0;    // 192 threads/block x 14 SMs on the C2070
  // Fraction of the node count. Experimentally tuned on the simulated
  // device via bench/fig13_t3_sweep (per-dataset optima fall at 10-80%; the
  // paper's Fermi measurements put them at 1-13% — our modeled queue
  // insertion is cheaper relative to bitmap thread waste).
  double t3_fraction = 0.30;

  // Extension over the paper's Fig. 11 (motivated by its own Sec. VI.B
  // thread-divergence discussion): the mapping decision compares
  // avg + skew_weight * stddev of the outdegree against T1, so heavy-tailed
  // graphs with a low *average* outdegree (e.g. SNS) still select block
  // mapping, whose cooperative neighborhood visit absorbs the tail. Set
  // skew_weight = 0 for the paper's exact rule.
  double skew_weight = 0.5;

  // Direction-optimizing thresholds (after Beamer et al., "Direction-
  // Optimizing Breadth-First Search"; the 4th adaptive dimension). Both
  // rules compare the frontier's edge mass against the volume one gather
  // iteration would scan, `unexplored_edges + num_nodes` (every pull kernel
  // sweeps all vertices; unexplored_edges is the engine's estimate of the
  // in-edges that sweep still has to read — see each engine for its proxy):
  //   push -> pull  when  frontier_edges > do_alpha * (unexplored + n)
  //   pull -> push  when  frontier_edges < do_beta  * (unexplored + n)
  // do_beta well below do_alpha gives hysteresis: a post-peak frontier keeps
  // pulling until it has truly drained. Beamer's CPU-tuned alpha=1/14 and
  // beta=1/24 (against different denominators) do not transfer to the
  // simulated kernels' cost model; these defaults are calibrated against
  // per-iteration push/pull timings on the bench corpus, where pull starts
  // winning once the frontier covers roughly half the gather volume.
  double do_alpha = 0.5;
  double do_beta = 0.05;

  // Representation thresholds (the 5th adaptive dimension; DESIGN.md
  // "Representation adaptivity"). The static preference is a pure function
  // of the inspector's topology stats:
  //   - degree CV (stddev/avg) <= rep_cv, or fewer than rep_min_nodes
  //     nodes: plain CSR — uniform rows have nothing to rebalance and a
  //     conversion of a small graph never amortizes;
  //   - CV above rep_cv with an extreme hub ratio (max/avg >= rep_hub):
  //     degree-relabelled CSR — packing the hubs into a few warps is the
  //     only way to keep them from serializing every warp they land in;
  //   - CV above rep_cv otherwise: binned CSR — warp-aligned degree
  //     buckets remove the divergence while keeping within-bucket original
  //     order (neighbor-gather locality the full sort destroys).
  // A mid-run switch additionally needs the remaining edge mass to cover
  // rep_switch_fraction of m (rep_upload_fraction when the target layout is
  // not yet device-resident, since the copy-engine conversion bill is paid
  // first) — the amortization check of Kusum et al.
  double rep_cv = 1.0;
  double rep_hub = 16.0;
  std::uint32_t rep_min_nodes = 4096;
  double rep_switch_fraction = 0.25;
  double rep_upload_fraction = 0.5;

  // Derives T1/T2 from the device per the paper's rules; keeps the given
  // T3 fraction (and the defaults for the direction knobs).
  static Thresholds for_device(const simt::DeviceProps& props,
                               std::uint32_t thread_tpb = 192,
                               double t3_fraction = 0.30);
};

gg::Variant decide(const Thresholds& t, std::uint64_t ws_size, double avg_outdegree,
                   std::uint32_t num_nodes, double outdeg_stddev = 0.0);

// Direction-optimizing controller step (the push<->pull hysteresis above):
// given the direction the traversal is currently running in and the
// inspector's frontier statistics, returns the direction for the next
// iteration. Pure function — the adaptive selector threads the returned
// value back in as `current`.
gg::Direction decide_direction(const Thresholds& t, gg::Direction current,
                               std::uint64_t frontier_edges,
                               std::uint64_t unexplored_edges,
                               std::uint32_t num_nodes);

// Static representation preference for a graph (the upload-time decision):
// pure over the inspector's whole-graph topology stats, so it replays
// deterministically and can be asserted in tests. Never returns `adaptive`.
gg::Representation decide_representation(const Thresholds& t,
                                         std::uint32_t num_nodes,
                                         double avg_outdegree,
                                         double outdeg_stddev,
                                         std::uint32_t max_outdegree);

// Per-iteration representation controller step (mirrors decide_direction):
// given the layout the traversal currently runs in, returns the layout for
// the next iteration. The static preference above never changes mid-run
// (its inputs are whole-graph), so this reduces to an amortization gate on
// the one candidate switch: enough working-set parallelism for layout to
// matter (ws_size >= T2) and enough remaining edge mass
// (frontier + unexplored >= fraction * m) to pay the conversion back —
// which also means a traversal switches at most once, and thrash is
// structurally impossible. Pure function; the selector threads the returned
// value back in as `current`.
gg::Representation decide_representation_step(
    const Thresholds& t, gg::Representation current, bool target_resident,
    std::uint64_t ws_size, std::uint64_t frontier_edges,
    std::uint64_t unexplored_edges, std::uint64_t num_edges,
    std::uint32_t num_nodes, double avg_outdegree, double outdeg_stddev,
    std::uint32_t max_outdegree);

// The persistent-run bound F (DESIGN.md "Persistent iterations"): for every
// working set |WS| < F the selector built on `t` provably keeps U_B_QU, push
// and the running layout, so the engine may run such iterations inside one
// persistent kernel without changing a decision.
//  * decide() returns B_QU for every |WS| < T2, and
//    decide_representation_step() never switches there;
//  * under Direction::adaptive, push -> pull needs frontier_edges >
//    do_alpha * gather volume. frontier_edges sums the outdegrees of |WS|
//    distinct nodes, so it is at most the sum of the |WS| largest
//    outdegrees, and the volume is at least `gather_min`, the smallest the
//    engine can report (n for BFS, whose unexplored-edge proxy can reach 0,
//    and for CC, whose proxy m - frontier_edges can too; 2m + n for SSSP,
//    whose proxy is flat).
// `degree_counts[d]` is the number of nodes of outdegree d (read only under
// adaptive direction). Every layout of a graph has its nonzero outdegrees,
// so the logical graph's counts bound every layout's frontier. So F = T2
// under push, min(T2, the largest k whose top-k outdegree sum is at most
// do_alpha * gather_min; T2 when every edge fits) under adaptive direction,
// and 0 under pull (nothing runs push). Pure; the result also carries both
// sides of the min for the trace, and init_kernel stays unset.
gg::PersistentBound persistent_bound(
    const Thresholds& t, gg::Direction direction, std::uint64_t gather_min,
    std::span<const std::uint64_t> degree_counts);

// CPU-fallback decision for the serving layer: answer a query with the
// serial oracle instead of launching on the device. Complements the variant
// decision above — it picks *whether* to use the GPU at all, on modeled
// time alone, so the choice replays deterministically.
struct FallbackInput {
  bool device_healthy = true;  // false once a fault plan killed the device
  double deadline_us = 0;      // modeled budget from submit; 0 = none
  double submit_us = 0;        // modeled submission time
  double gpu_start_us = 0;     // earliest slot on any device stream
  double cpu_start_us = 0;     // host serial timeline ready time
  double cpu_estimate_us = 0;  // modeled serial execution time (upper bound)
};

// True when the device is unhealthy, or the earliest device slot already
// misses the deadline while the host can still answer in time.
bool choose_cpu_fallback(const FallbackInput& in);

}  // namespace rt
