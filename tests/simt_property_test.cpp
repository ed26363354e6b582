// Property-style sweeps over the SIMT simulator: invariants that must hold
// for arbitrary access patterns, grid shapes and device profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/prng.h"
#include "simt/launch.h"
#include "simt/primitives.h"
#include "simt/profiler.h"

namespace {

using simt::Device;
using simt::GridSpec;
using simt::Site;
using simt::ThreadCtx;

constexpr Site kLoad{0, "load"};
constexpr Site kOps{1, "ops"};
constexpr Site kAtomic{2, "atomic"};
constexpr Site kShared{3, "shared"};

// ---- coalescing bounds over random strides ---------------------------------

class StrideSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StrideSweep, TransactionsBetweenOneAndWarpSize) {
  const std::uint32_t stride = GetParam();
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(64 * (stride + 1) + 64, "buf");
  const auto ks =
      simt::launch(dev, "stride", GridSpec::dense(64, 64), [&](ThreadCtx& ctx) {
        (void)ctx.load(buf, ctx.global_id() * stride, kLoad);
      });
  // Two warps, one dynamic load instruction each.
  EXPECT_GE(ks.transactions, stride == 0 ? 2.0 : 2.0);
  EXPECT_LE(ks.transactions, 2.0 * simt::kWarpSize);
  // Transactions grow monotonically with stride until fully scattered.
  const double expected =
      2.0 * std::min<double>(simt::kWarpSize,
                             std::max<double>(1.0, stride * 4.0 * 32 / 128.0));
  EXPECT_NEAR(ks.transactions, expected, expected * 0.5 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 8u, 16u, 32u, 64u));

// ---- time monotonicity -------------------------------------------------------

class WorkSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkSweep, TimeMonotoneInThreadCount) {
  const std::uint64_t threads = GetParam();
  Device dev;
  const auto small = simt::launch(dev, "w", GridSpec::dense(threads, 256),
                                  [](ThreadCtx& ctx) { ctx.compute(50, kOps); });
  const auto larger = simt::launch(dev, "w", GridSpec::dense(threads * 4, 256),
                                   [](ThreadCtx& ctx) { ctx.compute(50, kOps); });
  EXPECT_LE(small.time_us, larger.time_us);
  EXPECT_GT(small.time_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorkSweep,
                         ::testing::Values(64ull, 1000ull, 10000ull, 100000ull));

// ---- sparse launch == dense launch when everything is active ----------------

TEST(SparseDenseEquivalence, FullyActiveSparseMatchesDenseWork) {
  Device dev;
  constexpr std::uint64_t kThreads = 4096;
  auto buf = dev.alloc<std::uint32_t>(kThreads, "buf");
  std::vector<std::uint32_t> all(kThreads);
  for (std::uint32_t i = 0; i < kThreads; ++i) all[i] = i;

  const auto dense = simt::launch(dev, "d", GridSpec::dense(kThreads, 256),
                                  [&](ThreadCtx& ctx) {
                                    (void)ctx.load(buf, ctx.global_id(), kLoad);
                                    ctx.compute(5, kOps);
                                  });
  simt::Predicate pred;  // disabled: pure grid-bound check
  const auto sparse = simt::launch(
      dev, "s", GridSpec::over_threads(kThreads, 256, all, pred),
      [&](ThreadCtx& ctx) {
        (void)ctx.load(buf, ctx.global_id(), kLoad);
        ctx.compute(5, kOps);
      });
  EXPECT_EQ(sparse.warps_executed, dense.warps_executed);
  EXPECT_DOUBLE_EQ(sparse.transactions, dense.transactions);
  EXPECT_NEAR(sparse.time_us, dense.time_us, 0.05 * dense.time_us);
}

// ---- SIMD efficiency bounds --------------------------------------------------

TEST(SimdEfficiency, AlwaysWithinUnitInterval) {
  Device dev;
  agg::Prng rng(17);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint32_t> work(512);
    for (auto& w : work) w = 1 + static_cast<std::uint32_t>(rng.bounded(97));
    const auto ks = simt::launch(dev, "rand", GridSpec::dense(512, 64),
                                 [&](ThreadCtx& ctx) {
                                   ctx.compute(work[ctx.global_id()], kOps);
                                 });
    EXPECT_GT(ks.simd_efficiency(), 0.0);
    EXPECT_LE(ks.simd_efficiency(), 1.0);
  }
}

// ---- line-buffer model ---------------------------------------------------------

TEST(LineBuffer, SequentialScanCheaperThanScattered) {
  Device dev;
  constexpr std::uint32_t kLen = 64;
  auto buf = dev.alloc<std::uint32_t>(32 * kLen, "buf");
  // Each lane scans its own contiguous chunk.
  const auto sequential =
      simt::launch(dev, "seq", GridSpec::dense(32, 32), [&](ThreadCtx& ctx) {
        const std::uint64_t base = ctx.global_id() * kLen;
        for (std::uint32_t i = 0; i < kLen; ++i) {
          (void)ctx.load(buf, base + i, kLoad);
        }
      });
  // Each lane hops across segments every access.
  const auto scattered =
      simt::launch(dev, "scat", GridSpec::dense(32, 32), [&](ThreadCtx& ctx) {
        const std::uint64_t lane = ctx.global_id();
        for (std::uint32_t i = 0; i < kLen; ++i) {
          (void)ctx.load(buf, (i * 32 + lane) * 37 % (32 * kLen), kLoad);
        }
      });
  EXPECT_LT(sequential.transactions, scattered.transactions);
  EXPECT_LT(sequential.mem_instrs, scattered.mem_instrs);
}

TEST(LineBuffer, StreamRefetchChargesBandwidthPeriodically) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(32 * 32, "buf");
  const auto ks =
      simt::launch(dev, "stream", GridSpec::dense(1, 32), [&](ThreadCtx& ctx) {
        if (ctx.global_id() != 0) return;
        for (std::uint32_t i = 0; i < 32; ++i) (void)ctx.load(buf, i, kLoad);
      });
  // 32 sequential 4B loads within one 128B segment: 1 cold miss plus
  // refetches every stream_refetch_period-th hit.
  const double hits = 31.0;
  const double expected =
      1.0 + std::floor(hits / dev.timing().stream_refetch_period);
  EXPECT_EQ(ks.transactions, expected);
}

// ---- atomic contention properties ---------------------------------------------

TEST(AtomicContention, SerializationScalesWithSameAddressOps) {
  Device dev;
  auto cell = dev.alloc<std::uint32_t>(1, "cell");
  auto run = [&](std::uint64_t threads) {
    return simt::launch(dev, "a", GridSpec::dense(threads, 256),
                        [&](ThreadCtx& ctx) {
                          ctx.atomic_add(cell, 0, 1u, kAtomic);
                        })
        .atomic_time_us;
  };
  const double t1 = run(1000);
  const double t2 = run(4000);
  EXPECT_NEAR(t2 / t1, 4.0, 0.2);
}

TEST(AtomicContention, SpreadingAddressesRemovesSerialization) {
  Device dev;
  auto cells = dev.alloc<std::uint32_t>(8192, "cells");
  const auto spread = simt::launch(dev, "s", GridSpec::dense(8192, 256),
                                   [&](ThreadCtx& ctx) {
                                     ctx.atomic_add(cells, ctx.global_id(), 1u,
                                                    kAtomic);
                                   });
  auto cell = dev.alloc<std::uint32_t>(1, "cell");
  const auto contended = simt::launch(dev, "c", GridSpec::dense(8192, 256),
                                      [&](ThreadCtx& ctx) {
                                        ctx.atomic_add(cell, 0, 1u, kAtomic);
                                      });
  EXPECT_LT(spread.atomic_time_us, contended.atomic_time_us);
  EXPECT_LT(spread.time_us, contended.time_us);
}

// ---- analytic estimator vs execution over a parameter sweep -------------------

struct EstimateCase {
  std::uint64_t threads;
  std::uint32_t tpb;
  std::uint32_t ops;
};

class EstimateSweep : public ::testing::TestWithParam<EstimateCase> {};

TEST_P(EstimateSweep, AnalyticWithinFifteenPercentOfExecuted) {
  const auto [threads, tpb, ops] = GetParam();
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(threads, "buf");
  const std::uint32_t ops_copy = ops;
  const auto executed = simt::launch(
      dev, "u", GridSpec::dense(threads, tpb), [&](ThreadCtx& ctx) {
        ctx.compute(ops_copy, kOps);
        (void)ctx.load(buf, ctx.global_id(), kLoad);
      });
  simt::UniformThreadCost cost;
  cost.ops = ops;
  cost.mem_instrs = 1;
  cost.transactions_per_warp = 1;
  const auto estimated = simt::estimate_uniform_kernel(
      dev.props(), dev.timing(), "u-est", threads, tpb, cost);
  EXPECT_NEAR(estimated.time_us, executed.time_us, 0.15 * executed.time_us)
      << "threads=" << threads << " tpb=" << tpb << " ops=" << ops;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EstimateSweep,
    ::testing::Values(EstimateCase{512, 64, 4}, EstimateCase{4096, 128, 16},
                      EstimateCase{20000, 256, 2}, EstimateCase{100000, 256, 8},
                      EstimateCase{65536, 512, 32}));

// ---- device clock & stats invariants ------------------------------------------

TEST(PredicateShift, WarpCentricBroadcastIsOneTransaction) {
  // With id_shift = 5 all 32 lanes of a warp read the same predicate byte.
  Device dev;
  auto flags = dev.alloc<std::uint8_t>(64, "flags");
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  pred.id_shift = 5;
  std::vector<std::uint32_t> active;
  for (std::uint32_t i = 0; i < 32; ++i) active.push_back(i);  // one full warp
  const auto ks = simt::launch(
      dev, "shift", GridSpec::over_threads(64 * 32, 32, active, pred),
      [](ThreadCtx&) {});
  // The executed warp's predicate access coalesces to a single segment.
  EXPECT_GE(ks.warps_executed, 1u);
}

TEST(PhasedLaunch, BlocksHaveIndependentSharedMemory) {
  Device dev;
  auto out = dev.alloc<std::uint32_t>(4, "out");
  simt::launch_phased(dev, "iso", 4 * 32, 32, 2, [&](int phase, ThreadCtx& ctx) {
    auto sh = ctx.shared_alloc<std::uint32_t>(0, 1);
    if (phase == 0 && ctx.thread_in_block() == 0) {
      ctx.shared_store(sh, 0, static_cast<std::uint32_t>(ctx.block_idx() + 100),
                       kShared);
    } else if (phase == 1 && ctx.thread_in_block() == 0) {
      ctx.store(out, ctx.block_idx(), ctx.shared_load(sh, 0, kShared), kLoad);
    }
  });
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(out.host_view()[b], b + 100) << "shared state leaked across blocks";
  }
}

TEST(ReduceMinEdge, AllEqualValues) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(1000, "vals");
  dev.fill(buf, 7u);
  EXPECT_EQ(simt::prim::reduce_min(dev, buf, 1000), 7u);
}

TEST(ReduceMinEdge, MinAtEveryPosition) {
  for (const std::size_t pos : {0ul, 255ul, 256ul, 999ul}) {
    Device dev;
    auto buf = dev.alloc<std::uint32_t>(1000, "vals");
    dev.fill(buf, 100u);
    buf.host_view()[pos] = 1;
    EXPECT_EQ(simt::prim::reduce_min(dev, buf, 1000), 1u) << pos;
  }
}

TEST(ReduceMinEdge, InfinitySentinelsSurvive) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(300, "vals");
  dev.fill(buf, 0xffffffffu);
  EXPECT_EQ(simt::prim::reduce_min(dev, buf, 300), 0xffffffffu);
}

TEST(PartialTransfer, DownloadPrefixOnly) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(100, "buf");
  for (std::uint32_t i = 0; i < 100; ++i) buf.host_view()[i] = i;
  std::vector<std::uint32_t> out(10);
  dev.memcpy_d2h(std::span<std::uint32_t>(out), buf);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(KeplerProfile, FastAtomicsReduceContention) {
  Device fermi(simt::DeviceProps::fermi_c2070(), simt::TimingModel::fermi_default());
  Device kepler(simt::DeviceProps::kepler_k20(), simt::TimingModel::kepler_default());
  auto run = [](Device& dev) {
    auto cell = dev.alloc<std::uint32_t>(1, "cell");
    return simt::launch(dev, "a", GridSpec::dense(50000, 256),
                        [&](ThreadCtx& ctx) { ctx.atomic_add(cell, 0, 1u, kAtomic); })
        .atomic_time_us;
  };
  EXPECT_LT(run(kepler), run(fermi) / 2.0);
}

TEST(IssueWidth, WiderSchedulerShrinksComputeTime) {
  simt::TimingModel narrow = simt::TimingModel::fermi_default();
  simt::TimingModel wide = narrow;
  wide.warps_issued_per_cycle = 2.0;
  const simt::UniformThreadCost cost{/*ops=*/64, 0, 0, 0};
  const auto& props = simt::DeviceProps::fermi_c2070();
  const auto a = simt::estimate_uniform_kernel(props, narrow, "n", 1 << 20, 256, cost);
  const auto b = simt::estimate_uniform_kernel(props, wide, "w", 1 << 20, 256, cost);
  EXPECT_GT(a.sm_time_us, 1.5 * b.sm_time_us);
}

TEST(Profiler, AggregatesByKernelName) {
  Device dev;
  simt::Profiler prof(dev);
  auto buf = dev.alloc<std::uint32_t>(4096, "buf");
  for (int i = 0; i < 3; ++i) {
    simt::launch(dev, "alpha", GridSpec::dense(4096, 256), [&](ThreadCtx& ctx) {
      (void)ctx.load(buf, ctx.global_id(), kLoad);
    });
  }
  simt::launch(dev, "beta", GridSpec::dense(64, 64),
               [](ThreadCtx& ctx) { ctx.compute(5, kOps); });
  ASSERT_EQ(prof.entries().size(), 2u);
  EXPECT_EQ(prof.entries().at("alpha").launches, 3u);
  EXPECT_EQ(prof.entries().at("beta").launches, 1u);
  EXPECT_GT(prof.total_time_us(), 0.0);
  const auto report = prof.report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
  prof.reset();
  EXPECT_TRUE(prof.entries().empty());
}

TEST(Profiler, ClassifiesBottlenecks) {
  Device dev;
  simt::Profiler prof(dev);
  auto cell = dev.alloc<std::uint32_t>(1, "cell");
  simt::launch(dev, "hot-atomic", GridSpec::dense(100000, 256),
               [&](ThreadCtx& ctx) { ctx.atomic_add(cell, 0, 1u, kAtomic); });
  simt::launch(dev, "hot-compute", GridSpec::dense(100000, 256),
               [](ThreadCtx& ctx) { ctx.compute(200, kOps); });
  EXPECT_STREQ(prof.entries().at("hot-atomic").bottleneck(), "atomics");
  EXPECT_STREQ(prof.entries().at("hot-compute").bottleneck(), "compute");
}

TEST(Profiler, ObserversChainAndRestore) {
  Device dev;
  std::vector<std::string> outer_seen;
  dev.set_kernel_observer([&](const simt::KernelStats& ks) {
    outer_seen.emplace_back(ks.name);
  });

  auto buf = dev.alloc<std::uint32_t>(512, "buf");
  {
    simt::Profiler prof(dev);
    dev.fill(buf, 1u);
    // Both the profiler and the pre-existing observer saw the launch.
    EXPECT_EQ(prof.entries().count("fill"), 1u);
    ASSERT_EQ(outer_seen.size(), 1u);
    EXPECT_EQ(outer_seen[0], "fill");
  }
  // Profiler destroyed: the original observer is restored, not dropped.
  dev.fill(buf, 2u);
  ASSERT_EQ(outer_seen.size(), 2u);

  dev.set_kernel_observer({});
  dev.fill(buf, 3u);
  EXPECT_EQ(outer_seen.size(), 2u);
}

TEST(Profiler, StackedProfilersBothObserve) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(256, "buf");
  simt::Profiler outer(dev);
  dev.fill(buf, 1u);
  {
    simt::Profiler inner(dev);
    dev.fill(buf, 2u);
    EXPECT_EQ(inner.entries().at("fill").launches, 1u);
    EXPECT_EQ(outer.entries().at("fill").launches, 2u);
  }
  dev.fill(buf, 3u);
  EXPECT_EQ(outer.entries().at("fill").launches, 3u);
}

TEST(DeviceClock, NeverDecreases) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(1024, "buf");
  double prev = dev.now_us();
  for (int i = 0; i < 5; ++i) {
    dev.fill(buf, static_cast<std::uint32_t>(i));
    simt::launch(dev, "k", GridSpec::dense(256, 64),
                 [](ThreadCtx& ctx) { ctx.compute(3, kOps); });
    simt::prim::charge_reduce_min(dev, 1024);
    EXPECT_GE(dev.now_us(), prev);
    prev = dev.now_us();
  }
}

TEST(DeviceStats, AggregateAcrossLaunches) {
  Device dev;
  const auto before = dev.stats().kernels_launched;
  for (int i = 0; i < 3; ++i) {
    simt::launch(dev, "k", GridSpec::dense(64, 64),
                 [](ThreadCtx& ctx) { ctx.compute(1, kOps); });
  }
  EXPECT_EQ(dev.stats().kernels_launched, before + 3);
}

TEST(TinyDevice, SlowerThanFermiOnSameKernel) {
  Device fermi;
  Device tiny(simt::DeviceProps::test_tiny());
  auto run = [](Device& dev) {
    return simt::launch(dev, "k", GridSpec::dense(100000, 128),
                        [](ThreadCtx& ctx) { ctx.compute(20, kOps); })
        .time_us;
  };
  EXPECT_GT(run(tiny), run(fermi));
}

}  // namespace
