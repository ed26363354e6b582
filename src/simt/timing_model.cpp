#include "simt/timing_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace simt {

WaveAccumulator::WaveAccumulator(const DeviceProps& props, const TimingModel& tm,
                                 std::uint32_t threads_per_block)
    : sms_(static_cast<std::size_t>(props.num_sms)),
      resident_(props.resident_blocks(threads_per_block)),
      dispatch_cycles_(tm.block_dispatch_cycles),
      issue_rate_(tm.warps_issued_per_cycle) {}

void WaveAccumulator::push_one(Sm& sm, double issue, double crit) {
  sm.wave_issue += issue + dispatch_cycles_;
  sm.wave_crit = std::max(sm.wave_crit, crit);
  // Eager close: a full wave retires immediately so that uniform-run folding
  // can detect the all-waves-empty state.
  if (++sm.in_wave == resident_) close_wave(sm);
}

void WaveAccumulator::close_wave(Sm& sm) {
  if (sm.in_wave > 0) {
    sm.time += std::max(sm.wave_issue / issue_rate_, sm.wave_crit);
    sm.wave_issue = 0;
    sm.wave_crit = 0;
    sm.in_wave = 0;
  }
}

void WaveAccumulator::add_block(std::uint64_t block_idx, double issue_sum,
                                double crit_max) {
  AGG_DCHECK(block_idx == next_block_);
  (void)block_idx;
  Sm& sm = sms_[next_block_ % sms_.size()];
  push_one(sm, issue_sum, crit_max);
  ++next_block_;
}

void WaveAccumulator::add_uniform_blocks(std::uint64_t count, double issue_per_block,
                                         double crit_per_block) {
  const auto num_sms = static_cast<std::uint64_t>(sms_.size());
  // Peel blocks one at a time until the round-robin cursor is SM-aligned and
  // every SM's current wave is empty; then fold whole waves in closed form.
  while (count > 0) {
    const bool aligned = next_block_ % num_sms == 0;
    bool waves_empty = true;
    for (const Sm& sm : sms_) waves_empty &= sm.in_wave == 0;
    if (aligned && waves_empty && count >= num_sms * static_cast<std::uint64_t>(resident_)) {
      break;
    }
    Sm& sm = sms_[next_block_ % num_sms];
    push_one(sm, issue_per_block, crit_per_block);
    ++next_block_;
    --count;
  }
  if (count == 0) return;

  const std::uint64_t per_full_round = num_sms * static_cast<std::uint64_t>(resident_);
  const std::uint64_t full_rounds = count / per_full_round;
  if (full_rounds > 0) {
    const double wave_time = std::max(
        static_cast<double>(resident_) * (issue_per_block + dispatch_cycles_) /
            issue_rate_,
        crit_per_block);
    for (Sm& sm : sms_) sm.time += static_cast<double>(full_rounds) * wave_time;
    next_block_ += full_rounds * per_full_round;
    count -= full_rounds * per_full_round;
  }
  while (count > 0) {
    Sm& sm = sms_[next_block_ % num_sms];
    push_one(sm, issue_per_block, crit_per_block);
    ++next_block_;
    --count;
  }
}

double WaveAccumulator::finish_cycles() {
  double worst = 0;
  for (Sm& sm : sms_) {
    close_wave(sm);
    worst = std::max(worst, sm.time);
  }
  return worst;
}

WarpCost uniform_warp_cost(const TimingModel& tm, const UniformThreadCost& c) {
  WarpCost w;
  w.issue_cycles = c.ops + c.mem_instrs * tm.issue_cycles_per_mem_instr +
                   c.transactions_per_warp * tm.lsu_cycles_per_transaction +
                   c.atomics * tm.issue_cycles_per_atomic;
  w.mem_instrs = c.mem_instrs;
  w.transactions = c.transactions_per_warp;
  w.atomics = c.atomics * kWarpSize;
  w.atomic_steps = c.atomics;
  w.lane_work = c.ops * kWarpSize;
  w.lockstep_work = c.ops * kWarpSize;
  return w;
}

KernelStats estimate_uniform_kernel(const DeviceProps& props, const TimingModel& tm,
                                    const char* name, std::uint64_t threads,
                                    std::uint32_t threads_per_block,
                                    const UniformThreadCost& cost) {
  KernelStats stats;
  stats.name = name;
  stats.total_threads = threads;
  if (threads == 0) {
    stats.time_us = tm.launch_overhead_us;
    return stats;
  }
  stats.blocks = (threads + threads_per_block - 1) / threads_per_block;
  const std::uint64_t warps_per_block = (threads_per_block + kWarpSize - 1) / kWarpSize;
  const std::uint64_t warps = stats.blocks * warps_per_block;
  stats.warps_uniform = warps;

  const WarpCost per_warp = uniform_warp_cost(tm, cost);
  stats.issue_cycles = per_warp.issue_cycles * static_cast<double>(warps);
  stats.mem_instrs = per_warp.mem_instrs * static_cast<double>(warps);
  stats.transactions = per_warp.transactions * static_cast<double>(warps);
  stats.atomics = per_warp.atomics * static_cast<double>(warps);
  stats.lane_work = per_warp.lane_work * static_cast<double>(warps);
  stats.lockstep_work = per_warp.lockstep_work * static_cast<double>(warps);

  WaveAccumulator waves(props, tm, threads_per_block);
  const double block_issue =
      per_warp.issue_cycles * static_cast<double>(warps_per_block);
  const double block_crit = per_warp.critical_cycles(tm);
  waves.add_uniform_blocks(stats.blocks, block_issue, block_crit);
  assemble_kernel_time(props, tm, waves.finish_cycles(), stats);
  return stats;
}

void assemble_kernel_time(const DeviceProps& props, const TimingModel& tm,
                          double sm_cycles, KernelStats& stats) {
  const double cycles_per_us = props.clock_ghz * 1e3;
  stats.sm_time_us = sm_cycles / cycles_per_us;
  stats.bw_time_us =
      stats.transactions * tm.segment_bytes / (props.dram_gbps * 1e3);
  stats.atomic_time_us = static_cast<double>(stats.max_atomic_same_addr) *
                         tm.atomic_serial_cycles / cycles_per_us;
  stats.time_us = std::max({stats.sm_time_us, stats.bw_time_us, stats.atomic_time_us}) +
                  tm.launch_overhead_us;
}

double grid_barrier_us(const DeviceProps& props, const TimingModel& tm,
                       std::uint64_t blocks) {
  const double cycles = tm.atomic_latency_cycles +
                        static_cast<double>(blocks) * tm.atomic_serial_cycles +
                        tm.mem_latency_cycles;
  return cycles / (props.clock_ghz * 1e3);
}

}  // namespace simt
