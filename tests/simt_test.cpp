#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <numeric>
#include <vector>

#include "simt/device.h"
#include "simt/exec_pool.h"
#include "simt/launch.h"
#include "simt/primitives.h"

namespace {

using simt::Device;
using simt::DeviceProps;
using simt::GridSpec;
using simt::Site;
using simt::ThreadCtx;

constexpr Site kLoad{0, "load"};
constexpr Site kStore{1, "store"};
constexpr Site kOps{2, "ops"};
constexpr Site kAtomic{3, "atomic"};

TEST(AddressSpace, AlignsAndTracks) {
  simt::AddressSpace space(1 << 20);
  const auto a = space.allocate(10);
  const auto b = space.allocate(10);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GE(b, a + 256);
  EXPECT_EQ(space.bytes_in_use(), 512u);
  space.release(10);
  EXPECT_EQ(space.bytes_in_use(), 256u);
}

TEST(DeviceBuffer, AddressesAreContiguous) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(100, "buf");
  EXPECT_EQ(buf.addr_of(1), buf.addr_of(0) + 4);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(Device, TransfersRoundTripAndAdvanceClock) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(16, "buf");
  std::vector<std::uint32_t> in(16);
  std::iota(in.begin(), in.end(), 0);
  const double t0 = dev.now_us();
  dev.memcpy_h2d(buf, std::span<const std::uint32_t>(in));
  EXPECT_GT(dev.now_us(), t0);
  std::vector<std::uint32_t> out(16);
  dev.memcpy_d2h(std::span<std::uint32_t>(out), buf);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.stats().transfers, 2u);
}

TEST(Device, FillSetsValuesAndCharges) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(1000, "buf");
  dev.fill(buf, 7u);
  for (const auto v : buf.host_view()) EXPECT_EQ(v, 7u);
  EXPECT_EQ(dev.stats().kernels_launched, 1u);
}

// ---- warp trace: coalescing -------------------------------------------------

// Runs one full warp whose lane i touches `addr_of(i * stride_elems)` and
// returns the kernel stats.
simt::KernelStats one_warp_stride(Device& dev, std::uint32_t stride_elems) {
  auto buf = dev.alloc<std::uint32_t>(32 * stride_elems + 32, "buf");
  return simt::launch(dev, "stride", GridSpec::dense(32, 32), [&](ThreadCtx& ctx) {
    (void)ctx.load(buf, ctx.global_id() * stride_elems, kLoad);
  });
}

TEST(Coalescing, ContiguousWarpIsOneTransaction) {
  Device dev;
  const auto ks = one_warp_stride(dev, 1);  // 32 x 4B consecutive = 128B
  EXPECT_DOUBLE_EQ(ks.transactions, 1.0);
}

TEST(Coalescing, Stride2UsesTwoSegments) {
  Device dev;
  const auto ks = one_warp_stride(dev, 2);
  EXPECT_DOUBLE_EQ(ks.transactions, 2.0);
}

TEST(Coalescing, Stride32IsFullyScattered) {
  Device dev;
  const auto ks = one_warp_stride(dev, 32);  // each lane a different 128B segment
  EXPECT_DOUBLE_EQ(ks.transactions, 32.0);
}

TEST(Coalescing, BroadcastIsOneTransaction) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(4, "buf");
  const auto ks =
      simt::launch(dev, "bcast", GridSpec::dense(32, 32), [&](ThreadCtx& ctx) {
        (void)ctx.load(buf, 0, kLoad);
      });
  EXPECT_DOUBLE_EQ(ks.transactions, 1.0);
}

// ---- warp trace: divergence -------------------------------------------------

TEST(Divergence, LoopTripImbalanceCostsMaxLane) {
  Device dev;
  // Lane i performs i ops: lockstep cost = 31 (max), lane work = sum = 496.
  const auto ks =
      simt::launch(dev, "div", GridSpec::dense(32, 32), [&](ThreadCtx& ctx) {
        const auto ops = static_cast<std::uint64_t>(ctx.global_id());
        if (ops > 0) ctx.compute(ops, kOps);
      });
  EXPECT_DOUBLE_EQ(ks.lane_work, 496.0);
  EXPECT_DOUBLE_EQ(ks.lockstep_work, 32.0 * 31.0);
  EXPECT_NEAR(ks.simd_efficiency(), 496.0 / (32.0 * 31.0), 1e-12);
}

TEST(Divergence, UniformWorkIsFullyEfficient) {
  Device dev;
  const auto ks =
      simt::launch(dev, "uni", GridSpec::dense(64, 32), [&](ThreadCtx& ctx) {
        ctx.compute(10, kOps);
        (void)ctx;
      });
  EXPECT_DOUBLE_EQ(ks.simd_efficiency(), 1.0);
}

// ---- atomics ----------------------------------------------------------------

TEST(Atomics, SameAddressSerializationTracked) {
  Device dev;
  auto counter = dev.alloc<std::uint32_t>(1, "counter");
  dev.fill(counter, 0u);
  const auto ks =
      simt::launch(dev, "atomics", GridSpec::dense(256, 64), [&](ThreadCtx& ctx) {
        ctx.atomic_add(counter, 0, 1u, kAtomic);
      });
  EXPECT_EQ(counter.host_view()[0], 256u);
  EXPECT_EQ(ks.max_atomic_same_addr, 256u);
  EXPECT_DOUBLE_EQ(ks.atomics, 256.0);
}

TEST(Atomics, DistinctAddressesDoNotSerialize) {
  Device dev;
  auto cells = dev.alloc<std::uint32_t>(256, "cells");
  dev.fill(cells, 0u);
  const auto ks =
      simt::launch(dev, "atomics", GridSpec::dense(256, 64), [&](ThreadCtx& ctx) {
        ctx.atomic_add(cells, ctx.global_id(), 1u, kAtomic);
      });
  EXPECT_EQ(ks.max_atomic_same_addr, 1u);
}

TEST(Atomics, AtomicMinFunctional) {
  Device dev;
  auto cell = dev.alloc<std::uint32_t>(1, "cell");
  dev.fill(cell, 1000u);
  simt::launch(dev, "amin", GridSpec::dense(64, 64), [&](ThreadCtx& ctx) {
    ctx.atomic_min(cell, 0, 500u + static_cast<std::uint32_t>(ctx.global_id()), kAtomic);
  });
  EXPECT_EQ(cell.host_view()[0], 500u);
}

// ---- wave accumulator / scheduling -----------------------------------------

simt::TimingModel no_dispatch_tm() {
  simt::TimingModel tm;
  tm.block_dispatch_cycles = 0;
  return tm;
}

TEST(WaveAccumulator, SingleBlockLatencyBound) {
  simt::WaveAccumulator waves(DeviceProps::test_tiny(), no_dispatch_tm(), 64);
  waves.add_block(0, /*issue=*/10.0, /*crit=*/500.0);
  EXPECT_DOUBLE_EQ(waves.finish_cycles(), 500.0);
}

TEST(WaveAccumulator, ThroughputBoundWhenIssueDominates) {
  simt::WaveAccumulator waves(DeviceProps::test_tiny(), no_dispatch_tm(), 64);
  // tiny device: 2 SMs, 2 resident blocks. 4 blocks = 1 wave per SM.
  for (std::uint64_t b = 0; b < 4; ++b) waves.add_block(b, 1000.0, 100.0);
  EXPECT_DOUBLE_EQ(waves.finish_cycles(), 2000.0);  // 2 blocks/SM x 1000
}

TEST(WaveAccumulator, UniformMatchesExplicit) {
  const auto& props = DeviceProps::test_tiny();
  const auto tm = simt::TimingModel::fermi_default();
  simt::WaveAccumulator a(props, tm, 64);
  simt::WaveAccumulator b(props, tm, 64);
  constexpr std::uint64_t kBlocks = 1037;
  for (std::uint64_t i = 0; i < kBlocks; ++i) a.add_block(i, 37.0, 210.0);
  b.add_uniform_blocks(kBlocks, 37.0, 210.0);
  EXPECT_NEAR(a.finish_cycles(), b.finish_cycles(), 1e-9);
}

TEST(WaveAccumulator, MixedActiveAndUniformRuns) {
  const auto& props = DeviceProps::fermi_c2070();
  const auto tm = simt::TimingModel::fermi_default();
  simt::WaveAccumulator a(props, tm, 256);
  simt::WaveAccumulator b(props, tm, 256);
  constexpr std::uint64_t kBlocks = 5000;
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    const bool active = i % 97 == 3;
    a.add_block(i, active ? 900.0 : 12.0, active ? 2500.0 : 420.0);
  }
  // Same stream expressed as uniform runs + explicit active blocks.
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    if (i % 97 == 3) {
      if (i > next) b.add_uniform_blocks(i - next, 12.0, 420.0);
      b.add_block(i, 900.0, 2500.0);
      next = i + 1;
    }
  }
  if (next < kBlocks) b.add_uniform_blocks(kBlocks - next, 12.0, 420.0);
  EXPECT_NEAR(a.finish_cycles(), b.finish_cycles(), 1e-6);
}

// ---- sparse launches ---------------------------------------------------------

TEST(SparseThreads, OnlyActiveRunBody) {
  Device dev;
  auto out = dev.alloc<std::uint32_t>(10000, "out");
  dev.fill(out, 0u);
  auto flags = dev.alloc<std::uint8_t>(10000, "flags");
  dev.fill(flags, std::uint8_t{0});
  const std::vector<std::uint32_t> active{3, 777, 5123, 9999};
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  const auto grid = GridSpec::over_threads(10000, 256, active, pred);
  const auto ks = simt::launch(dev, "sparse", grid, [&](ThreadCtx& ctx) {
    ctx.store(out, ctx.global_id(), 1u, kStore);
  });
  std::uint64_t set = 0;
  for (const auto v : out.host_view()) set += v;
  EXPECT_EQ(set, active.size());
  for (const auto id : active) EXPECT_EQ(out.host_view()[id], 1u);
  // Grid has 40 blocks; actives fall in blocks {0, 3, 20, 39}, one warp each.
  // The 36 inactive blocks contribute 8 predicate warps apiece, the active
  // blocks 7 each — except block 39, whose 16-thread tail holds one warp.
  EXPECT_EQ(ks.warps_executed, 4u);
  EXPECT_EQ(ks.warps_uniform, 36u * 8u + 3u * 7u);
}

TEST(SparseThreads, CheaperThanDenseEquivalentWork) {
  Device dev;
  auto flags = dev.alloc<std::uint8_t>(100000, "flags");
  const std::vector<std::uint32_t> active{50};
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  const auto sparse = simt::launch(
      dev, "s", GridSpec::over_threads(100000, 256, active, pred),
      [&](ThreadCtx& ctx) { ctx.compute(100, kOps); });
  const auto dense = simt::launch(
      dev, "d", GridSpec::dense(100000, 256),
      [&](ThreadCtx& ctx) { ctx.compute(100, kOps); });
  EXPECT_LT(sparse.time_us, dense.time_us);
}

TEST(SparseBlocks, AllLanesOfActiveBlocksRun) {
  Device dev;
  auto out = dev.alloc<std::uint32_t>(1, "out");
  dev.fill(out, 0u);
  auto flags = dev.alloc<std::uint8_t>(100, "flags");
  const std::vector<std::uint32_t> active{7, 42};
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  const auto grid = GridSpec::over_blocks(100, 64, active, pred);
  simt::launch(dev, "sb", grid, [&](ThreadCtx& ctx) {
    ctx.atomic_add(out, 0, 1u, kAtomic);
  });
  EXPECT_EQ(out.host_view()[0], 2u * 64u);
}

// ---- phased kernels & shared memory ------------------------------------------

TEST(Phased, SharedMemoryPersistsAcrossPhases) {
  Device dev;
  auto out = dev.alloc<std::uint32_t>(4, "out");
  dev.fill(out, 0u);
  simt::launch_phased(dev, "ph", /*threads=*/4 * 32, /*tpb=*/32, /*phases=*/2,
                      [&](int phase, ThreadCtx& ctx) {
                        auto sh = ctx.shared_alloc<std::uint32_t>(0, 32);
                        const auto tid = ctx.thread_in_block();
                        if (phase == 0) {
                          ctx.shared_store(sh, tid, tid + 1, kStore);
                        } else if (tid == 0) {
                          std::uint32_t sum = 0;
                          for (std::uint32_t i = 0; i < 32; ++i) {
                            sum += ctx.shared_load(sh, i, kLoad);
                          }
                          ctx.store(out, ctx.block_idx(), sum, kStore);
                        }
                      });
  for (const auto v : out.host_view()) EXPECT_EQ(v, 32u * 33u / 2u);
}

TEST(SharedMemory, BankConflictsIncreaseIssue) {
  Device dev;
  auto run = [&](std::uint32_t stride) {
    return simt::launch_phased(dev, "bank", 32, 32, 1,
                               [&](int, ThreadCtx& ctx) {
                                 auto sh = ctx.shared_alloc<std::uint32_t>(0, 32 * 32);
                                 ctx.shared_store(sh, ctx.thread_in_block() * stride,
                                                  1u, kStore);
                               });
  };
  const auto conflict_free = run(1);
  const auto conflicted = run(32);  // all lanes hit bank 0
  EXPECT_GT(conflicted.issue_cycles, conflict_free.issue_cycles);
}

// ---- primitives ---------------------------------------------------------------

TEST(ReduceMin, FindsMinimum) {
  Device dev;
  constexpr std::size_t kN = 5000;
  auto buf = dev.alloc<std::uint32_t>(kN, "vals");
  auto view = buf.host_view();
  for (std::size_t i = 0; i < kN; ++i) {
    view[i] = 1000 + static_cast<std::uint32_t>((i * 2654435761u) % 100000);
  }
  view[3777] = 5;
  EXPECT_EQ(simt::prim::reduce_min(dev, buf, kN), 5u);
}

TEST(ReduceMin, SingleElement) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(1, "vals");
  buf.host_view()[0] = 42;
  EXPECT_EQ(simt::prim::reduce_min(dev, buf, 1), 42u);
}

TEST(ReduceMin, AnalyticChargeTracksExecutedCost) {
  for (const std::size_t n : {1000ul, 30000ul, 200000ul}) {
    Device executed;
    auto buf = executed.alloc<std::uint32_t>(n, "vals");
    executed.fill(buf, 77u);
    const double before = executed.now_us();
    simt::prim::reduce_min(executed, buf, n);
    const double exec_time = executed.now_us() - before;

    Device analytic;
    simt::prim::charge_reduce_min(analytic, n);
    const double model_time = analytic.now_us();
    EXPECT_NEAR(model_time, exec_time, 0.5 * exec_time)
        << "n=" << n << " exec=" << exec_time << " model=" << model_time;
  }
}

TEST(ExclusiveScan, MatchesReferenceAcrossSizes) {
  for (const std::size_t n : {1ul, 7ul, 255ul, 256ul, 257ul, 1000ul, 70000ul}) {
    Device dev;
    auto in = dev.alloc<std::uint32_t>(n, "in");
    auto out = dev.alloc<std::uint32_t>(n, "out");
    auto view = in.host_view();
    for (std::size_t i = 0; i < n; ++i) {
      view[i] = static_cast<std::uint32_t>((i * 2654435761u) % 7);
    }
    simt::prim::exclusive_scan(dev, in, out, n);
    std::uint32_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out.host_view()[i], expected) << "n=" << n << " i=" << i;
      expected += view[i];
    }
  }
}

TEST(ExclusiveScan, AllOnesGivesIota) {
  Device dev;
  constexpr std::size_t kN = 600;
  auto in = dev.alloc<std::uint32_t>(kN, "in");
  auto out = dev.alloc<std::uint32_t>(kN, "out");
  dev.fill(in, 1u);
  simt::prim::exclusive_scan(dev, in, out, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out.host_view()[i], static_cast<std::uint32_t>(i));
  }
}

TEST(ExclusiveScan, ChargeScanApproximatesExecutedCost) {
  constexpr std::size_t kN = 50000;
  Device executed;
  auto in = executed.alloc<std::uint32_t>(kN, "in");
  auto out = executed.alloc<std::uint32_t>(kN, "out");
  executed.fill(in, 1u);
  const double before = executed.now_us();
  simt::prim::exclusive_scan(executed, in, out, kN);
  const double exec_time = executed.now_us() - before;

  Device analytic;
  simt::prim::charge_scan(analytic, kN);
  EXPECT_NEAR(analytic.now_us(), exec_time, exec_time);  // same order of magnitude
}

TEST(UniformEstimate, MatchesExecutedUniformKernel) {
  Device dev;
  constexpr std::uint64_t kThreads = 40000;
  auto buf = dev.alloc<std::uint32_t>(kThreads, "buf");
  const auto executed = simt::launch(
      dev, "uniform", GridSpec::dense(kThreads, 256), [&](ThreadCtx& ctx) {
        ctx.compute(12, kOps);
        (void)ctx.load(buf, ctx.global_id(), kLoad);
      });
  simt::UniformThreadCost cost;
  cost.ops = 12;
  cost.mem_instrs = 1;
  cost.transactions_per_warp = 1;
  const auto estimated = simt::estimate_uniform_kernel(
      dev.props(), dev.timing(), "uniform-est", kThreads, 256, cost);
  EXPECT_NEAR(estimated.time_us, executed.time_us, 0.15 * executed.time_us);
}

TEST(WaveAccumulator, BlockDispatchAddsThroughputCost) {
  const auto& props = DeviceProps::test_tiny();
  simt::TimingModel tm = no_dispatch_tm();
  tm.block_dispatch_cycles = 100.0;
  simt::WaveAccumulator with(props, tm, 64);
  simt::WaveAccumulator without(props, no_dispatch_tm(), 64);
  for (std::uint64_t b = 0; b < 8; ++b) {
    with.add_block(b, 1000.0, 10.0);
    without.add_block(b, 1000.0, 10.0);
  }
  // 4 blocks per SM: dispatch adds 4 x 100 cycles of issue per SM.
  EXPECT_DOUBLE_EQ(with.finish_cycles(), without.finish_cycles() + 400.0);
}

TEST(KernelTime, IncludesLaunchOverhead) {
  Device dev;
  const auto ks = simt::launch(dev, "empty", GridSpec::dense(1, 32),
                               [](ThreadCtx&) {});
  EXPECT_GE(ks.time_us, dev.timing().launch_overhead_us);
}

TEST(ParseThreads, AcceptsWholeNumbersInRange) {
  EXPECT_EQ(simt::parse_threads("1"), 1);
  EXPECT_EQ(simt::parse_threads("4"), 4);
  EXPECT_EQ(simt::parse_threads("004"), 4);
  EXPECT_EQ(simt::parse_threads("512"), simt::kMaxThreads);
}

TEST(ParseThreads, RejectsEverythingElse) {
  for (const char* bad : {"", "abc", "0", "-2", "+4", " 4", "4x", "4.0",
                          "513", "600", "100000", "5000000000",
                          "99999999999999999999999"}) {
    EXPECT_EQ(simt::parse_threads(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(SimThreadsConfig, EnvVariableIsHonored) {
  simt::ExecPool::set_threads(0);  // fall back to env resolution
  ASSERT_EQ(setenv("SIMT_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(simt::ExecPool::threads(), 3);
  ASSERT_EQ(setenv("SIMT_THREADS", "garbage", 1), 0);
  EXPECT_GE(simt::ExecPool::threads(), 1);  // invalid values fall back
  ASSERT_EQ(unsetenv("SIMT_THREADS"), 0);
  simt::ExecPool::set_threads(5);  // explicit override wins over env
  ASSERT_EQ(setenv("SIMT_THREADS", "2", 1), 0);
  EXPECT_EQ(simt::ExecPool::threads(), 5);
  ASSERT_EQ(unsetenv("SIMT_THREADS"), 0);
  simt::ExecPool::set_threads(1);
}

TEST(LaunchGuards, PhasedValidatesTpb) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Device dev;
  EXPECT_DEATH(simt::launch_phased(dev, "bad.tpb0", 256, 0, 1,
                                   [](int, ThreadCtx&) {}),
               "tpb >= 1");
  EXPECT_DEATH(simt::launch_phased(dev, "bad.tpb_huge", 256, 4096, 1,
                                   [](int, ThreadCtx&) {}),
               "tpb >= 1");
}

TEST(LaunchGuards, OverBlocksRejectsOverflow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::uint32_t> active;
  EXPECT_DEATH(GridSpec::over_blocks(std::numeric_limits<std::uint64_t>::max() / 2,
                                     256, active, simt::Predicate{}),
               "total_blocks");
}

}  // namespace
