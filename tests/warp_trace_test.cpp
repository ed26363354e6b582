// Bit-exactness of simt::WarpTrace against a reference cost model, plus the
// TimingModel checks the tracer relies on.
//
// The reference keeps every lane's counters in 32-entry arrays and reduces
// them over the lanes in finish_warp — the straightforward form of the cost
// model (paper Sec. III). The tracer streams lanes instead (see
// warp_trace.h); both are driven with the same seeded event streams and
// every WarpCost field must compare equal with ==.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "simt/device.h"
#include "simt/warp_trace.h"

namespace {

using simt::AtomicTally;
using simt::kWarpSize;
using simt::Site;
using simt::TimingModel;
using simt::WarpCost;

class ReferenceTrace {
 public:
  explicit ReferenceTrace(const TimingModel& tm) : tm_(tm) {}

  void begin_warp() {
    for (std::uint8_t id : touched_) sites_[id] = SiteState{};
    touched_.clear();
    lane_ = 0;
  }
  void set_lane(int lane) { lane_ = lane; }

  void on_global(Site site, std::uint64_t addr) {
    SiteState& s = touch(site, Kind::global);
    const std::uint32_t k = s.lane_steps[lane_]++;
    if (k >= s.steps.size()) s.steps.resize(k + 1);
    std::vector<std::uint64_t>& segs = s.steps[k];
    const std::uint64_t seg = addr / static_cast<std::uint64_t>(tm_.segment_bytes);
    if (s.last_seg[lane_] == seg + 1) {
      if (static_cast<int>(++s.lane_hits[lane_]) % tm_.stream_refetch_period != 0) {
        return;
      }
    } else {
      s.last_seg[lane_] = seg + 1;
      ++s.lane_miss[lane_];
    }
    if (std::find(segs.begin(), segs.end(), seg) == segs.end()) segs.push_back(seg);
  }

  void on_compute(Site site, std::uint64_t ops) {
    touch(site, Kind::compute).lane_ops[lane_] += ops;
  }

  void on_atomic(Site site, std::uint64_t addr) {
    SiteState& s = touch(site, Kind::atomic);
    ++s.lane_steps[lane_];
    s.atomic_addrs.push_back(addr);
  }

  void on_shared(Site site, std::uint32_t word_index) {
    SiteState& s = touch(site, Kind::shared);
    const std::uint32_t k = s.lane_steps[lane_]++;
    if (k >= s.steps.size()) s.steps.resize(k + 1);
    s.steps[k].push_back(word_index);
  }

  WarpCost finish_warp(AtomicTally& tally) {
    WarpCost cost;
    for (std::uint8_t id : touched_) {
      const SiteState& s = sites_[id];
      switch (s.kind) {
        case Kind::compute: {
          std::uint64_t max_ops = 0;
          std::uint64_t sum_ops = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            max_ops = std::max(max_ops, s.lane_ops[l]);
            sum_ops += s.lane_ops[l];
          }
          cost.issue_cycles += static_cast<double>(max_ops);
          cost.lane_work += static_cast<double>(sum_ops);
          cost.lockstep_work += static_cast<double>(kWarpSize * max_ops);
          break;
        }
        case Kind::global: {
          for (const auto& segs : s.steps) {
            const auto nsegs = static_cast<std::uint32_t>(segs.size());
            cost.issue_cycles += tm_.issue_cycles_per_mem_instr +
                                 tm_.lsu_cycles_per_transaction * nsegs;
            cost.transactions += nsegs;
          }
          std::uint32_t max_miss = 0;
          for (int l = 0; l < kWarpSize; ++l) max_miss = std::max(max_miss, s.lane_miss[l]);
          cost.mem_instrs += static_cast<double>(max_miss);
          break;
        }
        case Kind::atomic: {
          std::uint32_t max_steps = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            max_steps = std::max(max_steps, s.lane_steps[l]);
          }
          cost.issue_cycles +=
              tm_.issue_cycles_per_atomic * static_cast<double>(max_steps);
          cost.atomic_steps += static_cast<double>(max_steps);
          cost.atomics += static_cast<double>(s.atomic_addrs.size());
          for (std::uint64_t addr : s.atomic_addrs) tally.add(addr);
          break;
        }
        case Kind::shared: {
          for (const auto& words : s.steps) {
            std::array<std::uint32_t, 32> bank{};
            std::uint32_t replays = 1;
            for (std::uint64_t w : words) replays = std::max(replays, ++bank[w % 32]);
            cost.issue_cycles += 1.0 + tm_.shared_replay_cycles * (replays - 1);
          }
          break;
        }
        case Kind::unused:
          break;
      }
    }
    return cost;
  }

 private:
  enum class Kind { unused, global, compute, atomic, shared };
  struct SiteState {
    Kind kind = Kind::unused;
    std::array<std::uint32_t, kWarpSize> lane_steps{};
    std::array<std::uint32_t, kWarpSize> lane_miss{};
    std::array<std::uint32_t, kWarpSize> lane_hits{};
    std::array<std::uint64_t, kWarpSize> last_seg{};
    std::array<std::uint64_t, kWarpSize> lane_ops{};
    std::vector<std::vector<std::uint64_t>> steps;  // segments / shared words
    std::vector<std::uint64_t> atomic_addrs;
  };

  SiteState& touch(Site site, Kind kind) {
    SiteState& s = sites_[site.id];
    if (s.kind == Kind::unused) {
      s.kind = kind;
      touched_.push_back(site.id);
    }
    EXPECT_EQ(static_cast<int>(s.kind), static_cast<int>(kind));
    return s;
  }

  const TimingModel& tm_;
  std::array<SiteState, simt::kMaxSites> sites_;
  std::vector<std::uint8_t> touched_;
  int lane_ = 0;
};

// Sites, each with one fixed kind and access pattern.
constexpr Site kCoalesced{0, "coalesced"};     // global: lane-consecutive words
constexpr Site kScan{1, "scan"};               // global: per-lane sequential scan
constexpr Site kScattered{2, "scattered"};     // global: random addresses
constexpr Site kMixed{3, "mixed"};             // global: hits, strides, randoms
constexpr Site kOps{4, "ops"};                 // compute
constexpr Site kAtomic{5, "atomic"};           // atomic: hot or spread addresses
constexpr Site kShared{6, "shared"};           // shared: strided words
constexpr Site kPredOps{18, "ws-predicate-ops"};  // launcher-reserved sites
constexpr Site kPred{19, "ws-predicate"};

enum class Op { global, compute, atomic, shared };

struct Event {
  int lane;
  Op op;
  Site site;
  std::uint64_t value;  // address, ops or word index
};

constexpr std::uint64_t kBase = 1 << 20;

// One warp's events in execution order: lanes ascending, each lane's events
// contiguous, every lane first recording the working-set predicate the way
// the launcher does, then (if active) a divergent-length loop body.
std::vector<Event> random_warp(agg::Prng& rng) {
  std::vector<Event> ev;
  const int lanes =
      rng.bernoulli(0.25) ? 1 + static_cast<int>(rng.bounded(kWarpSize)) : kWarpSize;
  const std::uint64_t pred_stride = rng.bounded(3);
  constexpr std::array<std::uint64_t, 5> kSharedStrides = {1, 2, 4, 32, 33};
  const std::uint64_t shared_stride = kSharedStrides[rng.bounded(5)];
  const std::uint64_t hot[2] = {kBase + 64, kBase + 4096};
  for (int lane = 0; lane < lanes; ++lane) {
    ev.push_back({lane, Op::global, kPred, kBase + 1000 + lane * pred_stride});
    ev.push_back({lane, Op::compute, kPredOps, 2});
    if (rng.bernoulli(0.2)) continue;  // inactive lane: predicate only
    // Power-law-ish trip counts make lanes diverge.
    const auto trips = static_cast<std::uint32_t>(
        rng.bernoulli(0.15) ? rng.bounded(80) : rng.bounded(6));
    const std::uint64_t scan_base = kBase + 65536 + rng.bounded(1 << 16) * 4;
    std::uint64_t mixed_addr = kBase + 8 * rng.bounded(1 << 14);
    for (std::uint32_t i = 0; i < trips; ++i) {
      ev.push_back({lane, Op::global, kScan, scan_base + 4ull * i});
      ev.push_back({lane, Op::compute, kOps, 1 + rng.bounded(8)});
      if (rng.bernoulli(0.5)) {
        ev.push_back({lane, Op::global, kCoalesced,
                      kBase + 4ull * (i * kWarpSize + static_cast<std::uint64_t>(lane))});
      }
      if (rng.bernoulli(0.3)) {
        ev.push_back({lane, Op::global, kScattered, kBase + rng.bounded(1 << 22)});
      }
      if (rng.bernoulli(0.6)) {
        const std::uint64_t pick = rng.bounded(4);
        if (pick == 0) mixed_addr += 4;                            // same segment
        if (pick == 1) mixed_addr += 128 * (1 + rng.bounded(3));   // next segments
        if (pick == 2) mixed_addr = kBase + 8 * rng.bounded(1 << 14);
        ev.push_back({lane, Op::global, kMixed, mixed_addr});
      }
      if (rng.bernoulli(0.25)) {
        const std::uint64_t addr =
            rng.bernoulli(0.7) ? hot[rng.bounded(2)] : kBase + 4 * rng.bounded(1 << 16);
        ev.push_back({lane, Op::atomic, kAtomic, addr});
      }
      if (rng.bernoulli(0.3)) {
        const std::uint64_t word = rng.bernoulli(0.8)
                                       ? lane * shared_stride + i
                                       : rng.bounded(2048);
        ev.push_back({lane, Op::shared, kShared, word});
      }
    }
  }
  return ev;
}

template <typename Trace>
void record(Trace& t, const Event& e) {
  t.set_lane(e.lane);
  switch (e.op) {
    case Op::global:
      t.on_global(e.site, e.value);
      break;
    case Op::compute:
      t.on_compute(e.site, e.value);
      break;
    case Op::atomic:
      t.on_atomic(e.site, e.value);
      break;
    case Op::shared:
      t.on_shared(e.site, static_cast<std::uint32_t>(e.value));
      break;
  }
}

TimingModel model(int refetch_period, double segment_bytes) {
  TimingModel tm;
  tm.stream_refetch_period = refetch_period;
  tm.segment_bytes = segment_bytes;
  // Non-integral constants, so that any change in the order of the
  // floating-point accumulation would show up in the low bits.
  tm.issue_cycles_per_mem_instr = 4.3;
  tm.lsu_cycles_per_transaction = 0.7;
  tm.issue_cycles_per_atomic = 3.1;
  tm.shared_replay_cycles = 1.3;
  return tm;
}

void expect_same(const WarpCost& ref, const WarpCost& got) {
  EXPECT_EQ(ref.issue_cycles, got.issue_cycles);
  EXPECT_EQ(ref.mem_instrs, got.mem_instrs);
  EXPECT_EQ(ref.transactions, got.transactions);
  EXPECT_EQ(ref.atomics, got.atomics);
  EXPECT_EQ(ref.atomic_steps, got.atomic_steps);
  EXPECT_EQ(ref.lane_work, got.lane_work);
  EXPECT_EQ(ref.lockstep_work, got.lockstep_work);
}

TEST(WarpTraceOracle, BitExactOnRandomWarps) {
  // One tracer is rebound across every model, so reuse of its step records
  // across warps and launches is exercised too.
  simt::WarpTrace trace;
  for (const int period : {1, 2, 3}) {
    for (const double seg_bytes : {128.0, 96.0}) {
      const TimingModel tm = model(period, seg_bytes);
      trace.rebind(tm);
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "period " << period << ", segment "
                                        << seg_bytes << " B, seed " << seed);
        agg::Prng rng(seed);
        ReferenceTrace ref(tm);
        AtomicTally ref_tally;
        AtomicTally tally;
        std::size_t events = 0;
        for (int w = 0; w < 200; ++w) {
          const std::vector<Event> warp = random_warp(rng);
          events += warp.size();
          ref.begin_warp();
          trace.begin_warp();
          for (const Event& e : warp) {
            record(ref, e);
            record(trace, e);
          }
          expect_same(ref.finish_warp(ref_tally), trace.finish_warp(tally));
          ASSERT_FALSE(HasFailure()) << "warp " << w;
        }
        EXPECT_EQ(ref_tally.max_count(), tally.max_count());
        EXPECT_EQ(ref_tally.total(), tally.total());
        EXPECT_GT(events, 10000u);
      }
    }
  }
}

TEST(WarpTraceOracle, LineBufferRefetchCountsAreExact) {
  // One lane streams 32 words of one 128 B segment: 1 miss, then every
  // period-th hit refetches.
  for (const int period : {1, 2, 3}) {
    const TimingModel tm = model(period, 128.0);
    simt::WarpTrace trace(tm);
    AtomicTally tally;
    trace.begin_warp();
    for (std::uint64_t i = 0; i < 32; ++i) trace.on_global(kScan, kBase + 4 * i);
    const WarpCost c = trace.finish_warp(tally);
    EXPECT_EQ(c.transactions, 1.0 + 31 / period) << "period " << period;
    EXPECT_EQ(c.mem_instrs, 1.0);
  }
}

// ---- AtomicTally reuse ----------------------------------------------------------

// A small launch after a large one: the reused tally clears only the slots
// the large launch filled, and must count exactly like a fresh one.
TEST(AtomicTallyReuse, ResetAfterGrowthMatchesAFreshTally) {
  AtomicTally grown;
  // 6,000 distinct addresses grow the table from 1,024 to 16,384 slots.
  for (std::uint64_t a = 1; a <= 6000; ++a) grown.add(kBase + 8 * a, a % 7 + 1);
  grown.reset();
  EXPECT_EQ(grown.max_count(), 0u);
  EXPECT_EQ(grown.total(), 0u);

  AtomicTally fresh;
  for (AtomicTally* t : {&grown, &fresh}) {
    t->add(kBase + 64, 3);
    t->add(kBase + 128);
    t->add(kBase + 64, 2);
    t->add(kBase + 8 * 17);  // an address the large launch used
  }
  EXPECT_EQ(grown.max_count(), fresh.max_count());
  EXPECT_EQ(grown.total(), fresh.total());
  EXPECT_EQ(grown.max_count(), 5u);
  EXPECT_EQ(grown.total(), 7u);
}

// ---- TimingModel validation ---------------------------------------------------

void construct(const TimingModel& tm) {
  simt::Device dev(simt::DeviceProps::fermi_c2070(), tm);
}

TEST(TimingModelValidationDeathTest, RejectsValuesTheTracerCannotUse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TimingModel zero;
  zero.segment_bytes = 0;
  EXPECT_DEATH(construct(zero), "segment_bytes");
  TimingModel fractional;
  fractional.segment_bytes = 96.5;
  EXPECT_DEATH(construct(fractional), "segment_bytes");
  TimingModel no_refetch;
  no_refetch.stream_refetch_period = 0;
  EXPECT_DEATH(construct(no_refetch), "stream_refetch_period");
  no_refetch.stream_refetch_period = -2;
  EXPECT_DEATH(construct(no_refetch), "stream_refetch_period");
}

TEST(TimingModelValidation, AcceptsWholeNonPowerOfTwoSegments) {
  construct(model(3, 96.0));
  construct(model(1, 1.0));
}

}  // namespace
