#include "simt/warp_trace.h"

#include <algorithm>
#include <bit>

namespace simt {

WarpCost& WarpCost::operator+=(const WarpCost& o) {
  issue_cycles += o.issue_cycles;
  mem_instrs += o.mem_instrs;
  transactions += o.transactions;
  atomics += o.atomics;
  atomic_steps += o.atomic_steps;
  lane_work += o.lane_work;
  lockstep_work += o.lockstep_work;
  return *this;
}

WarpCost WarpCost::operator*(double k) const {
  WarpCost c = *this;
  c.issue_cycles *= k;
  c.mem_instrs *= k;
  c.transactions *= k;
  c.atomics *= k;
  c.atomic_steps *= k;
  c.lane_work *= k;
  c.lockstep_work *= k;
  return c;
}

void AtomicTally::reset() {
  for (const std::size_t i : used_) slots_[i] = Slot{};
  used_.clear();
  max_count_ = 0;
  total_ = 0;
}

void AtomicTally::add(std::uint64_t addr, std::uint64_t count) {
  if (used_.size() * 2 >= slots_.size()) grow();
  // addr 0 is an invalid device address, safe to use as the empty marker.
  AGG_DCHECK(addr != 0);
  std::uint64_t h = addr;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  std::size_t i = h & (slots_.size() - 1);
  while (slots_[i].key != 0 && slots_[i].key != addr) {
    i = (i + 1) & (slots_.size() - 1);
  }
  if (slots_[i].key == 0) {
    slots_[i].key = addr;
    used_.push_back(i);
  }
  slots_[i].count += count;
  max_count_ = std::max(max_count_, slots_[i].count);
  total_ += count;
}

void AtomicTally::grow() {
  const std::vector<Slot> old = std::move(slots_);
  const std::vector<std::size_t> old_used = std::move(used_);
  slots_.assign(old.size() * 2, Slot{});
  used_.clear();
  const std::uint64_t keep_max = max_count_;
  const std::uint64_t keep_total = total_;
  for (const std::size_t i : old_used) add(old[i].key, old[i].count);
  max_count_ = keep_max;
  total_ = keep_total;
}

void WarpTrace::rebind(const TimingModel& tm) {
  tm_ = &tm;
  // Device construction rejects segment sizes that are not a positive whole
  // number of bytes and refetch periods below 1.
  const auto bytes = static_cast<std::uint64_t>(tm.segment_bytes);
  AGG_DCHECK(bytes > 0 && tm.stream_refetch_period > 0);
  seg_shift_ = std::has_single_bit(bytes) ? std::countr_zero(bytes) : -1;
  seg_div_ = bytes;
  refetch_period_ = static_cast<std::uint32_t>(tm.stream_refetch_period);
}

void WarpTrace::begin_warp() {
  for (int i = 0; i < ntouched_; ++i) {
    SiteState& s = sites_[touched_[i]];
    s.kind = Kind::unused;
    s.lane = -1;
    s.max_steps = 0;
    s.max_misses = 0;
    s.max_ops = 0;
    s.sum_ops = 0;
    s.nsteps = 0;
    s.atomic_addrs.clear();
  }
  ntouched_ = 0;
  lane_ = 0;
  spill_end_ = 0;
}

void WarpTrace::fold_lane(SiteState& s) {
  s.max_steps = std::max(s.max_steps, s.lane_steps);
  s.max_misses = std::max(s.max_misses, s.lane_misses);
  s.max_ops = std::max(s.max_ops, s.lane_ops);
  s.sum_ops += s.lane_ops;
}

void WarpTrace::enter_lane(SiteState& s, std::uint8_t id, Kind kind) {
  if (s.kind == Kind::unused) {
    s.kind = kind;
    touched_[ntouched_++] = id;
  } else {
    fold_lane(s);
  }
  s.lane = lane_;
  s.lane_steps = 0;
  s.lane_misses = 0;
  s.lane_refetch_in = refetch_period_;
  s.lane_last_seg = 0;
  s.lane_ops = 0;
}

WarpCost WarpTrace::finish_warp(AtomicTally& tally) {
  const TimingModel& tm = *tm_;
  WarpCost cost;
  for (int i = 0; i < ntouched_; ++i) {
    SiteState& s = sites_[touched_[i]];
    fold_lane(s);
    switch (s.kind) {
      case Kind::compute:
        cost.issue_cycles += static_cast<double>(s.max_ops);
        cost.lane_work += static_cast<double>(s.sum_ops);
        cost.lockstep_work += static_cast<double>(kWarpSize * s.max_ops);
        break;
      case Kind::global:
        // Every step is issued; a step past the last written record saw only
        // line-buffer hits and moved no segment.
        for (std::uint32_t k = 0; k < s.max_steps; ++k) {
          const std::uint32_t nsegs = k < s.nsteps ? s.steps[k].nsegs : 0;
          cost.issue_cycles += tm.issue_cycles_per_mem_instr +
                               tm.lsu_cycles_per_transaction * nsegs;
          cost.transactions += nsegs;
        }
        // The latency chain counts only line-buffer misses (hits are served
        // from L1 within the issue cost), lockstep across lanes.
        cost.mem_instrs += static_cast<double>(s.max_misses);
        break;
      case Kind::atomic:
        cost.issue_cycles +=
            tm.issue_cycles_per_atomic * static_cast<double>(s.max_steps);
        cost.atomic_steps += static_cast<double>(s.max_steps);
        cost.atomics += static_cast<double>(s.atomic_addrs.size());
        for (std::uint64_t addr : s.atomic_addrs) tally.add(addr);
        break;
      case Kind::shared:
        for (std::uint32_t k = 0; k < s.nsteps; ++k) {
          const Step& step = s.steps[k];
          const std::uint64_t* words = segs_of(step);
          // Replays: max accesses that map to one bank; conflict-free = 1.
          std::array<std::uint8_t, 32> bank{};
          std::uint32_t replays = 1;
          for (std::uint32_t j = 0; j < step.nsegs; ++j) {
            const auto b = static_cast<std::uint32_t>(words[j] % 32);
            replays = std::max<std::uint32_t>(replays, ++bank[b]);
          }
          cost.issue_cycles += 1.0 + tm.shared_replay_cycles * (replays - 1);
        }
        break;
      case Kind::unused:
        break;
    }
  }
  return cost;
}

}  // namespace simt
