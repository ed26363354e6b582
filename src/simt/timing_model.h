// Kernel time assembly: block -> SM scheduling, wave accounting, and the
// final composition of SM cycles, DRAM bandwidth, and atomic serialization
// into a kernel execution time.
//
// Scheduling model: blocks are assigned to SMs round-robin; each SM holds up
// to `resident_blocks(tpb)` blocks concurrently (one *wave*) and runs its
// waves back to back. A wave cannot retire faster than
//
//     max( sum of warp issue cycles in the wave,      -- throughput bound
//          max over warps of warp critical path )     -- latency bound
//
// which captures both the "small working sets leave SMs idle / latency
// exposed" and the "large grids are throughput-bound" regimes that drive the
// paper's T2 threshold. Kernel time is then
//
//     max( max over SMs of wave-summed cycles / clock,
//          total 128B transactions / DRAM bandwidth,
//          hottest-atomic-address ops * serialization throughput )
//     + fixed launch overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "simt/device_props.h"
#include "simt/warp_trace.h"

namespace simt {

struct KernelStats {
  const char* name = "";
  std::uint64_t blocks = 0;
  std::uint64_t total_threads = 0;
  std::uint64_t warps_executed = 0;  // functionally executed warps
  std::uint64_t warps_uniform = 0;   // analytically accounted (predicate-only) warps
  double issue_cycles = 0;
  double mem_instrs = 0;
  double transactions = 0;
  double atomics = 0;
  std::uint64_t max_atomic_same_addr = 0;
  double lane_work = 0;
  double lockstep_work = 0;
  // Time components (microseconds).
  double sm_time_us = 0;
  double bw_time_us = 0;
  double atomic_time_us = 0;
  double time_us = 0;  // final: max(components) + launch overhead

  // SIMD lane utilization of the compute work: 1.0 = no divergence.
  double simd_efficiency() const {
    return lockstep_work > 0 ? lane_work / lockstep_work : 1.0;
  }
};

// Streams per-block costs (in increasing block-index order) into per-SM wave
// times. Uniform runs of identical blocks are folded in closed form so sparse
// launches never iterate the millions of predicate-only blocks of a bitmap
// working set.
class WaveAccumulator {
 public:
  WaveAccumulator(const DeviceProps& props, const TimingModel& tm,
                  std::uint32_t threads_per_block);

  // Active block with measured cost. Blocks must arrive in increasing order,
  // interleaved consistently with add_uniform_blocks ranges.
  void add_block(std::uint64_t block_idx, double issue_sum, double crit_max);
  // `count` consecutive blocks each costing (issue_per_block, crit_per_block).
  void add_uniform_blocks(std::uint64_t count, double issue_per_block,
                          double crit_per_block);

  // Closes open waves and returns max over SMs of total cycles.
  double finish_cycles();

  int resident_blocks() const { return resident_; }

 private:
  struct Sm {
    double time = 0;
    double wave_issue = 0;
    double wave_crit = 0;
    int in_wave = 0;
  };
  void push_one(Sm& sm, double issue, double crit);
  void close_wave(Sm& sm);

  std::vector<Sm> sms_;
  int resident_;
  double dispatch_cycles_;
  double issue_rate_;
  std::uint64_t next_block_ = 0;  // round-robin cursor
};

// Per-thread cost description for kernels that are perfectly uniform (memset,
// array init, reductions over dense arrays). Allows charging such kernels
// analytically without executing every thread.
struct UniformThreadCost {
  double ops = 0;                    // arithmetic ops per thread
  double mem_instrs = 0;             // global memory instructions per thread
  double transactions_per_warp = 0;  // after coalescing
  double atomics = 0;                // atomic ops per thread
};

// Builds the WarpCost of one full warp of threads with the given uniform cost.
WarpCost uniform_warp_cost(const TimingModel& tm, const UniformThreadCost& c);

// Full analytic estimate of a uniform kernel over `threads` threads.
KernelStats estimate_uniform_kernel(const DeviceProps& props, const TimingModel& tm,
                                    const char* name, std::uint64_t threads,
                                    std::uint32_t threads_per_block,
                                    const UniformThreadCost& cost);

// Combines accumulated totals into the final KernelStats time fields.
void assemble_kernel_time(const DeviceProps& props, const TimingModel& tm,
                          double sm_cycles, KernelStats& stats);

// One software grid barrier of a persistent kernel whose grid is `blocks`
// resident blocks (DESIGN.md "Persistent iterations"): every block arrives
// with one atomic on a shared counter (its round trip, plus the arrivals
// serialized on that one address), then one global load observes the
// release. Existing constants only:
//   atomic_latency + blocks * atomic_serial + mem_latency  cycles.
double grid_barrier_us(const DeviceProps& props, const TimingModel& tm,
                       std::uint64_t blocks);

}  // namespace simt
