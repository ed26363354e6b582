// Architectural parameters of the simulated GPU.
//
// The default profile models the NVIDIA Tesla C2070 (Fermi GF100) used in the
// paper's evaluation: 14 streaming multiprocessors x 32 CUDA cores, 1.15 GHz,
// 144 GB/s GDDR5, warp size 32. Figures come from the paper (Sec. VII) and
// NVIDIA's public Fermi documentation.
#pragma once

#include <cstdint>
#include <string>

namespace simt {

inline constexpr int kWarpSize = 32;
// Kernel parameter space of every profile here (Fermi and Kepler: 4 KB).
inline constexpr std::uint64_t kKernelParamBytes = 4096;

struct DeviceProps {
  std::string name = "Tesla C2070 (simulated)";
  int num_sms = 14;
  int cores_per_sm = 32;
  double clock_ghz = 1.15;            // SM clock; 1 warp-instruction issued per cycle
  int max_threads_per_block = 1024;
  int max_resident_threads_per_sm = 1536;
  int max_resident_blocks_per_sm = 8;
  std::uint64_t global_mem_bytes = 6ull << 30;
  double dram_gbps = 144.0;           // global memory bandwidth
  double pcie_gbps = 6.0;             // effective host<->device bandwidth
  std::uint64_t shared_mem_per_block = 48u << 10;
  int shared_banks = 32;

  // Max resident blocks for a given block size (occupancy).
  int resident_blocks(std::uint32_t threads_per_block) const;

  // Named profiles.
  static const DeviceProps& fermi_c2070();
  // GeForce GTX 580: the larger Fermi (16 SMs, higher clock and bandwidth).
  static const DeviceProps& fermi_gtx580();
  // Tesla K20 (Kepler GK110): more SMs, quad-issue schedulers, fast atomics
  // (pair with TimingModel::kepler_default()).
  static const DeviceProps& kepler_k20();
  // A deliberately tiny device (2 SMs, 2 resident blocks) used by unit tests
  // so that scheduling corner cases (waves, partial warps) are easy to reason
  // about by hand.
  static const DeviceProps& test_tiny();

  bool operator==(const DeviceProps&) const = default;
};

// Cost constants of the timing model. All values are in SM cycles unless
// suffixed otherwise. They are deliberately few in number and first-order:
// the model's purpose is to preserve the *relative* behaviour of the kernel
// variants (divergence, coalescing, atomic serialization, occupancy), not to
// predict absolute Fermi timings.
struct TimingModel {
  double issue_cycles_per_mem_instr = 4.0;   // issue + address generation
  double lsu_cycles_per_transaction = 1.0;   // LSU occupancy per 128 B segment
  double issue_cycles_per_atomic = 4.0;
  double mem_latency_cycles = 400.0;         // global load-use latency
  double atomic_latency_cycles = 400.0;      // atomic round-trip latency
  double mem_level_parallelism = 4.0;        // overlapping loads per warp
  double atomic_serial_cycles = 4.0;         // per-op throughput on one address
                                             // (Fermi L2 contended atomics)
  double block_dispatch_cycles = 2.0;        // GigaThread block scheduling cost
                                             // (amortized; empty blocks stream)
  double segment_bytes = 128.0;              // coalescing granularity
  // L1 is shared by every resident warp, so a thread's sequential stream is
  // periodically evicted between its own accesses: every `stream_refetch`-th
  // line-buffer hit refetches the segment (DRAM bandwidth, not latency).
  int stream_refetch_period = 2;
  double launch_overhead_us = 4.0;           // per kernel launch
  double transfer_latency_us = 8.0;          // per cudaMemcpy
  double shared_replay_cycles = 1.0;         // per extra bank-conflict replay
  double warps_issued_per_cycle = 1.0;       // SM scheduler issue width

  static TimingModel fermi_default() { return {}; }
  // Kepler-generation constants: wider issue, an order of magnitude faster
  // same-address atomics, slightly lower memory latency.
  static TimingModel kepler_default() {
    TimingModel tm;
    tm.warps_issued_per_cycle = 2.0;
    tm.atomic_serial_cycles = 1.0;
    tm.mem_latency_cycles = 320.0;
    tm.atomic_latency_cycles = 320.0;
    return tm;
  }

  bool operator==(const TimingModel&) const = default;
};

}  // namespace simt
