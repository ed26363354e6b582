// Warp-level execution tracing and cost aggregation.
//
// The simulator executes the 32 lanes of a warp one after another
// (functionally), while each lane records its architectural events against a
// *static access site* — an id the kernel author assigns to each load/store/
// atomic/arithmetic location in the kernel body, playing the role of a static
// instruction address. After all lanes ran, the trace re-groups the recorded
// events into *dynamic warp instructions*: the k-th event each lane produced
// at a site forms one SIMT lockstep instruction. From that grouping we derive
// the three first-order Fermi effects the paper's evaluation rests on:
//
//  * divergence   — a site executes max-over-lanes(k) dynamic instructions,
//                   so a warp whose lanes loop over different outdegrees pays
//                   for the largest one (paper Sec. III.B / IV.B);
//  * coalescing   — the <=32 addresses of one dynamic instruction collapse
//                   into 128-byte segments; each segment costs one memory
//                   transaction (paper Sec. III.C);
//  * atomics      — atomic events are tallied per target address; the launch
//                   charges serialized throughput on the hottest address
//                   (paper Sec. IV.C / V.C, queue insertion).
//
// Lane streaming. Lanes of a warp run in non-decreasing lane order and a lane
// that was left is never revisited (ThreadCtx::bind_lane checks this). Each
// site therefore keeps only the *live* lane's counters; when another lane
// first records at the site, the left lane's counters are folded into
// warp-wide max/sum scalars. Only what genuinely spans lanes — the distinct
// segments (or shared words) of each dynamic instruction — is stored per
// step. The folds are integer max/sum, and finish_warp accumulates the
// floating-point cost in the same site and step order as a per-lane-array
// model would, so every WarpCost field is bit-identical to it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "simt/device_props.h"

namespace simt {

// A static access site. Kernels declare them as constexpr values; ids must be
// unique within one kernel launch and < kMaxSites.
struct Site {
  std::uint8_t id;
  const char* name;
};

inline constexpr int kMaxSites = 20;

// Aggregated cost of one executed warp.
struct WarpCost {
  double issue_cycles = 0;      // SM issue/execute occupancy
  double mem_instrs = 0;        // dynamic global-memory instructions (latency chain)
  double transactions = 0;      // 128 B segments moved
  double atomics = 0;           // atomic operations issued (total, for contention)
  double atomic_steps = 0;      // lockstep atomic instructions (max per lane)
  double lane_work = 0;         // sum of per-lane compute ops (for SIMD efficiency)
  double lockstep_work = 0;     // kWarpSize * sum of max-lane compute ops

  // Critical path of this warp alone: what it costs when latency cannot be
  // hidden behind other warps. Independent loads within a warp overlap up to
  // the modeled memory-level parallelism; the 32 atomics of one lockstep
  // instruction are one latency step (their serialization is charged at the
  // launch level through the address tally).
  double critical_cycles(const TimingModel& tm) const {
    return issue_cycles +
           (mem_instrs * tm.mem_latency_cycles +
            atomic_steps * tm.atomic_latency_cycles) /
               tm.mem_level_parallelism;
  }

  WarpCost& operator+=(const WarpCost& o);
  WarpCost operator*(double k) const;
};

// Open-addressing counter map used to find the hottest atomic address of a
// kernel launch. Reused across launches to avoid allocation churn; it
// remembers which slots a launch filled, so reset() costs the addresses that
// launch touched, not the table a larger launch grew.
class AtomicTally {
 public:
  void reset();
  void add(std::uint64_t addr, std::uint64_t count = 1);
  std::uint64_t max_count() const { return max_count_; }
  std::uint64_t total() const { return total_; }

 private:
  void grow();
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
  };
  std::vector<Slot> slots_ = std::vector<Slot>(1024);
  std::vector<std::size_t> used_;  // occupied slot indices, in insertion order
  std::uint64_t max_count_ = 0;
  std::uint64_t total_ = 0;
};

class WarpTrace {
 public:
  // A default-constructed trace must be rebind()-ed to a timing model before
  // recording; a thread's launch scratch outlives any single Device.
  WarpTrace() = default;
  explicit WarpTrace(const TimingModel& tm) { rebind(tm); }

  // Binds the timing model and precomputes what every access needs from it:
  // the segment shift (or divisor, when segment_bytes is not a power of two)
  // and the line-buffer refetch period.
  void rebind(const TimingModel& tm);

  void begin_warp();
  // Within one warp, lanes must be set in non-decreasing order.
  void set_lane(int lane) { lane_ = lane; }
  int lane() const { return lane_; }

  // Recording API, called by ThreadCtx.
  void on_global(Site site, std::uint64_t addr);
  void on_compute(Site site, std::uint64_t ops);
  void on_atomic(Site site, std::uint64_t addr);
  void on_shared(Site site, std::uint32_t word_index);

  // Aggregates the events recorded since begin_warp(). Atomic addresses are
  // forwarded into `tally` for launch-level contention analysis.
  WarpCost finish_warp(AtomicTally& tally);

 private:
  // Segments (or shared words) a step keeps in its record. A step that
  // collects more — a scattered lockstep instruction — moves them all to a
  // 32-slot overflow block of the current warp, so the deep steps of one
  // long lane (a hub's adjacency scan) cost a small record each.
  static constexpr std::uint32_t kInlineSegs = 4;

  // One dynamic instruction of a global or shared site. Records are reused
  // across warps and reset lazily, when a warp first writes to them.
  struct Step {
    std::uint64_t seen = 0;  // global: one filter bit per stored segment
    std::uint32_t nsegs = 0;
    std::uint32_t spill = 0;  // 1 + offset of its overflow block; 0 = none
    // global: distinct segment ids; shared: raw word indices, one per lane.
    // Here while they fit, all in the overflow block after that.
    std::array<std::uint64_t, kInlineSegs> segs;
  };

  enum class Kind : std::uint8_t { unused, global, compute, atomic, shared };

  struct SiteState {
    Kind kind = Kind::unused;
    int lane = -1;                      // owner of the live counters; -1 = none
    // The live lane's counters.
    std::uint32_t lane_steps = 0;       // events
    std::uint32_t lane_misses = 0;      // events missing the line buffer
    std::uint32_t lane_refetch_in = 0;  // line-buffer hits left until a refetch
    std::uint64_t lane_last_seg = 0;    // last segment + 1; 0 = none
    std::uint64_t lane_ops = 0;         // compute ops
    // Folds over the lanes already left.
    std::uint32_t max_steps = 0;
    std::uint32_t max_misses = 0;
    std::uint64_t max_ops = 0;
    std::uint64_t sum_ops = 0;
    std::uint32_t nsteps = 0;           // step records reset this warp
    std::vector<Step> steps;
    std::vector<std::uint64_t> atomic_addrs;
  };

  SiteState& touch(Site site, Kind kind) {
    AGG_DCHECK(site.id < kMaxSites);
    SiteState& s = sites_[site.id];
    if (s.lane != lane_) enter_lane(s, site.id, kind);
    AGG_DCHECK(s.kind == kind);
    return s;
  }
  void enter_lane(SiteState& s, std::uint8_t id, Kind kind);
  static void fold_lane(SiteState& s);
  static Step& step_at(SiteState& s, std::uint32_t k);
  void insert_segment(SiteState& s, std::uint32_t k, std::uint64_t seg);
  const std::uint64_t* segs_of(const Step& step) const {
    return step.spill != 0 ? &spill_[step.spill - 1] : step.segs.data();
  }
  void push_seg(Step& step, std::uint64_t seg);

  std::uint64_t segment_of(std::uint64_t addr) const {
    return seg_shift_ >= 0 ? addr >> seg_shift_ : addr / seg_div_;
  }

  const TimingModel* tm_ = nullptr;
  int seg_shift_ = -1;
  std::uint64_t seg_div_ = 1;
  std::uint32_t refetch_period_ = 1;
  std::array<SiteState, kMaxSites> sites_;
  std::vector<std::uint64_t> spill_;  // overflow blocks of the current warp
  std::uint32_t spill_end_ = 0;       // slots of spill_ in use
  std::array<std::uint8_t, kMaxSites> touched_{};
  int ntouched_ = 0;
  int lane_ = 0;
};

// ---- hot recorders ----

inline void WarpTrace::on_global(Site site, std::uint64_t addr) {
  SiteState& s = touch(site, Kind::global);
  const std::uint32_t k = s.lane_steps++;
  const std::uint64_t seg = segment_of(addr);
  // Line-buffer model of per-thread spatial locality: a lane re-reading the
  // segment it touched last at this site (e.g. the sequential adjacency scan
  // of thread mapping) hits in L1 and skips the latency step; the lockstep
  // instruction itself is still issued. Because L1 is shared by all resident
  // warps, only part of the stream survives between a lane's own accesses:
  // every stream_refetch_period-th hit refetches the segment (counted against
  // DRAM bandwidth, but not the latency chain).
  if (s.lane_last_seg == seg + 1) {
    if (--s.lane_refetch_in != 0) return;
    s.lane_refetch_in = refetch_period_;
  } else {
    s.lane_last_seg = seg + 1;
    ++s.lane_misses;
  }
  insert_segment(s, k, seg);
}

inline void WarpTrace::on_compute(Site site, std::uint64_t ops) {
  touch(site, Kind::compute).lane_ops += ops;
}

inline void WarpTrace::on_atomic(Site site, std::uint64_t addr) {
  SiteState& s = touch(site, Kind::atomic);
  ++s.lane_steps;
  s.atomic_addrs.push_back(addr);
}

inline void WarpTrace::on_shared(Site site, std::uint32_t word_index) {
  SiteState& s = touch(site, Kind::shared);
  // Shared sites keep raw word indices (not deduplicated); bank conflicts are
  // derived in finish_warp.
  Step& step = step_at(s, s.lane_steps++);
  AGG_DCHECK(step.nsegs < static_cast<std::uint32_t>(kWarpSize));
  push_seg(step, word_index);
}

inline WarpTrace::Step& WarpTrace::step_at(SiteState& s, std::uint32_t k) {
  // A line-buffer hit writes no record, so a write may skip past records
  // this warp has not reset yet.
  while (s.nsteps <= k) {
    if (s.nsteps == s.steps.size()) s.steps.emplace_back();
    Step& fresh = s.steps[s.nsteps++];
    fresh.seen = 0;
    fresh.nsegs = 0;
    fresh.spill = 0;
  }
  return s.steps[k];
}

inline void WarpTrace::push_seg(Step& step, std::uint64_t seg) {
  if (step.spill != 0) {
    spill_[step.spill - 1 + step.nsegs++] = seg;
    return;
  }
  if (step.nsegs < kInlineSegs) {
    step.segs[step.nsegs++] = seg;
    return;
  }
  step.spill = spill_end_ + 1;
  spill_end_ += kWarpSize;
  if (spill_.size() < spill_end_) spill_.resize(spill_end_);
  std::uint64_t* block = &spill_[step.spill - 1];
  std::copy(step.segs.begin(), step.segs.end(), block);
  block[step.nsegs++] = seg;
}

inline void WarpTrace::insert_segment(SiteState& s, std::uint32_t k,
                                      std::uint64_t seg) {
  Step& step = step_at(s, k);
  // A 64-bit filter over the stored segments: the dedupe scan runs only when
  // the segment's bit is already set.
  const std::uint64_t bit = std::uint64_t{1}
                            << ((seg * 0x9e3779b97f4a7c15ull) >> 58);
  if (step.seen & bit) {
    const std::uint64_t* segs = segs_of(step);
    for (std::uint32_t i = 0; i < step.nsegs; ++i) {
      if (segs[i] == seg) return;
    }
  }
  // Each lane adds at most one segment per step, so 32 slots always suffice.
  AGG_DCHECK(step.nsegs < static_cast<std::uint32_t>(kWarpSize));
  step.seen |= bit;
  push_seg(step, seg);
}

}  // namespace simt
