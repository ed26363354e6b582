// Microbenchmarks of the SIMT simulator substrate itself (google-benchmark):
// tracing throughput, coalescing analysis, sparse-launch accounting, and the
// reduction primitive. These bound the simulation cost per modeled event and
// guard against regressions that would make the experiment benches unusable.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "common/prng.h"
#include "simt/launch.h"
#include "simt/primitives.h"
#include "trace/chrome_trace.h"
#include "trace/trace_sink.h"

namespace {

constexpr simt::Site kLoad{0, "load"};
constexpr simt::Site kOps{1, "ops"};
constexpr simt::Site kAtomic{2, "atomic"};
constexpr simt::Site kEdge{3, "edge"};

void BM_DenseLaunchCompute(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::launch(dev, "compute", simt::GridSpec::dense(threads, 256),
                 [](simt::ThreadCtx& ctx) { ctx.compute(4, kOps); });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_DenseLaunchCompute)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_CoalescedLoads(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  auto buf = dev.alloc<std::uint32_t>(threads, "buf");
  for (auto _ : state) {
    simt::launch(dev, "loads", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   benchmark::DoNotOptimize(ctx.load(buf, ctx.global_id(), kLoad));
                 });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_CoalescedLoads)->Arg(1 << 14)->Arg(1 << 17);

void BM_ScatteredLoads(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  auto buf = dev.alloc<std::uint32_t>(threads * 64, "buf");
  for (auto _ : state) {
    simt::launch(dev, "scatter", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   const std::size_t i = ctx.global_id() * 2654435761u % (threads * 64);
                   benchmark::DoNotOptimize(ctx.load(buf, i, kLoad));
                 });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_ScatteredLoads)->Arg(1 << 14);

// ---- per-event tracer cost ----
//
// Both report items_per_second = simulated tracer events (loads and compute
// ops recorded through ThreadCtx) per host second.

// Thread-mapped adjacency scans: every lane walks its own contiguous row, with
// power-law row lengths, so most loads hit the lane's line buffer and lanes
// diverge. This is the access pattern that dominates rmat-cold.
void BM_LineBufferScan(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const agg::PowerLawSampler lengths(2.0, 1, 512);
  agg::Prng rng(7);
  std::vector<std::uint32_t> offsets(threads + 1, 0);
  for (std::uint32_t t = 0; t < threads; ++t) {
    offsets[t + 1] = offsets[t] + lengths.sample(rng);
  }
  auto rows = dev.alloc<std::uint32_t>(offsets.size(), "rows");
  dev.memcpy_h2d(rows, std::span<const std::uint32_t>(offsets));
  auto cols = dev.alloc<std::uint32_t>(offsets.back(), "cols");
  for (auto _ : state) {
    simt::launch(dev, "scan", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   const std::uint64_t gid = ctx.global_id();
                   const std::uint32_t end = ctx.load(rows, gid + 1, kLoad);
                   for (std::uint32_t e = ctx.load(rows, gid, kLoad); e < end; ++e) {
                     benchmark::DoNotOptimize(ctx.load(cols, e, kEdge));
                     ctx.compute(3, kOps);
                   }
                 });
  }
  const std::uint64_t events_per_launch = 2ull * threads + 2ull * offsets.back();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * events_per_launch));
}
BENCHMARK(BM_LineBufferScan)->Arg(1 << 12)->Arg(1 << 14);

// Every dynamic load instruction touches 32 distinct segments (one per lane)
// and no lane ever re-reads its last segment: the coalescing dedupe at its
// widest, with no line-buffer hits.
void BM_ScatteredGather(benchmark::State& state) {
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kLoadsPerThread = 16;
  constexpr std::uint64_t kSegmentWords = 32;  // 128 B of 4 B words
  auto buf = dev.alloc<std::uint32_t>(threads * kSegmentWords, "buf");
  for (auto _ : state) {
    simt::launch(dev, "gather", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   const std::uint64_t gid = ctx.global_id();
                   for (std::uint64_t r = 0; r < kLoadsPerThread; ++r) {
                     const std::uint64_t row = (gid + r * 37) % threads;
                     benchmark::DoNotOptimize(ctx.load(buf, row * kSegmentWords, kLoad));
                   }
                 });
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * threads * kLoadsPerThread));
}
BENCHMARK(BM_ScatteredGather)->Arg(1 << 12)->Arg(1 << 14);

void BM_AtomicTally(benchmark::State& state) {
  simt::Device dev;
  auto counter = dev.alloc<std::uint32_t>(1, "counter");
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::launch(dev, "atomics", simt::GridSpec::dense(threads, 256),
                 [&](simt::ThreadCtx& ctx) {
                   ctx.atomic_add(counter, 0, 1u, kAtomic);
                 });
  }
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_AtomicTally)->Arg(1 << 14);

void BM_SparseLaunchAccounting(benchmark::State& state) {
  // One active thread in a grid of `range` threads: measures the analytic
  // accounting cost of predicate-only blocks.
  simt::Device dev;
  const auto total = static_cast<std::uint64_t>(state.range(0));
  auto flags = dev.alloc<std::uint8_t>(total, "flags");
  const std::vector<std::uint32_t> active{static_cast<std::uint32_t>(total / 2)};
  simt::Predicate pred;
  pred.base_addr = flags.base_addr();
  pred.stride = 1;
  for (auto _ : state) {
    simt::launch(dev, "sparse",
                 simt::GridSpec::over_threads(total, 256, active, pred),
                 [](simt::ThreadCtx& ctx) { ctx.compute(1, kOps); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseLaunchAccounting)->Arg(1 << 16)->Arg(1 << 22);

void BM_ReduceMinExecuted(benchmark::State& state) {
  simt::Device dev;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto buf = dev.alloc<std::uint32_t>(n, "vals");
  dev.fill(buf, 123u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simt::prim::reduce_min(dev, buf, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceMinExecuted)->Arg(1 << 12)->Arg(1 << 16);

void BM_ReduceMinAnalytic(benchmark::State& state) {
  simt::Device dev;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::prim::charge_reduce_min(dev, n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReduceMinAnalytic)->Arg(1 << 22);

// ---- tracing overhead ----
//
// Second argument: 0 = tracing off (each launch pays exactly one
// predicted-false trace::active() branch — this row must track the plain
// launch numbers), 1 = Chrome sink attached in memory (cost of rendering
// every kernel event).
void BM_LaunchTraceOverhead(benchmark::State& state) {
  if (state.range(1) != 0) {
    trace::Tracer::instance().attach(std::make_unique<trace::ChromeTraceSink>());
  }
  simt::Device dev;
  const auto threads = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simt::launch(dev, "traced", simt::GridSpec::dense(threads, 256),
                 [](simt::ThreadCtx& ctx) { ctx.compute(4, kOps); });
  }
  trace::Tracer::instance().clear();
  state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_LaunchTraceOverhead)->Args({1 << 14, 0})->Args({1 << 14, 1});

}  // namespace

BENCHMARK_MAIN();
