#include "simt/primitives.h"

#include <bit>
#include <limits>

#include "simt/launch.h"

namespace simt::prim {
namespace {

constexpr Site kLoadSite{0, "reduce-load"};
constexpr Site kSharedSite{1, "reduce-shared"};
constexpr Site kPartialSite{2, "reduce-partial"};
constexpr Site kOpsSite{3, "reduce-ops"};

constexpr int kTreePhases = 8;  // log2(kReduceTpb)
static_assert((1u << kTreePhases) == kReduceTpb);

// One level of tree reduction: n inputs -> ceil(n / kReduceTpb) partials.
void reduce_level(Device& dev, const DeviceBuffer<std::uint32_t>& in, std::size_t n,
                  DeviceBuffer<std::uint32_t>& out) {
  // Launch whole blocks: threads past n still run and pad the shared tree
  // with the identity (max), as the real kernel would.
  const std::size_t blocks = (n + kReduceTpb - 1) / kReduceTpb;
  launch_phased(
      dev, "reduce_min.level", blocks * kReduceTpb, kReduceTpb,
      /*phases=*/kTreePhases + 2,
      [&](int phase, ThreadCtx& ctx) {
        auto sh = ctx.shared_alloc<std::uint32_t>(0, kReduceTpb);
        const std::uint32_t tid = ctx.thread_in_block();
        if (phase == 0) {
          const std::uint64_t gid = ctx.global_id();
          const std::uint32_t v =
              gid < n ? ctx.load(in, gid, kLoadSite)
                      : std::numeric_limits<std::uint32_t>::max();
          ctx.shared_store(sh, tid, v, kSharedSite);
          return;
        }
        if (phase <= kTreePhases) {
          const std::uint32_t stride = kReduceTpb >> phase;
          ctx.compute(2, kOpsSite);  // bound check + min
          if (tid < stride) {
            const std::uint32_t a = ctx.shared_load(sh, tid, kSharedSite);
            const std::uint32_t b = ctx.shared_load(sh, tid + stride, kSharedSite);
            ctx.shared_store(sh, tid, std::min(a, b), kSharedSite);
          }
          return;
        }
        // Final phase: lane 0 publishes the block partial.
        if (tid == 0) {
          const std::uint32_t v = ctx.shared_load(sh, 0, kSharedSite);
          ctx.store(out, ctx.block_idx(), v, kPartialSite);
        }
      });
}

// Per-level uniform cost used by the analytic twin. Derived from the kernel
// above: each thread does one coalesced global load, ~2 shared accesses plus
// 2 ops per tree phase (amortized across the halving active set), and one
// partial store per block.
UniformThreadCost reduce_level_cost() {
  UniformThreadCost c;
  // load phase: 1 shared store; tree: sum over phases of (2 ops for all
  // threads) plus (3 shared accesses for the active half), which telescopes
  // to ~2*kTreePhases + 3*2 per thread on average; final publish amortizes
  // to ~0.
  c.ops = 1 + 2.0 * kTreePhases + 6.0;
  c.mem_instrs = 1;
  c.transactions_per_warp = kWarpSize * sizeof(std::uint32_t) / 128.0;
  return c;
}

}  // namespace

std::uint32_t reduce_min(Device& dev, const DeviceBuffer<std::uint32_t>& values,
                         std::size_t n) {
  AGG_CHECK(n >= 1 && n <= values.size());
  std::size_t level_n = n;
  std::size_t partial_count = (level_n + kReduceTpb - 1) / kReduceTpb;
  DeviceBuffer<std::uint32_t> ping = dev.alloc<std::uint32_t>(partial_count, "reduce.ping");
  reduce_level(dev, values, level_n, ping);
  level_n = partial_count;

  DeviceBuffer<std::uint32_t> pong =
      dev.alloc<std::uint32_t>((level_n + kReduceTpb - 1) / kReduceTpb, "reduce.pong");
  while (level_n > 1) {
    reduce_level(dev, ping, level_n, pong);
    level_n = (level_n + kReduceTpb - 1) / kReduceTpb;
    std::swap(ping, pong);
  }
  const std::uint32_t result = dev.read_scalar(ping);
  dev.free(ping);
  dev.free(pong);
  return result;
}

void charge_reduce_min(Device& dev, std::uint64_t n) {
  std::uint64_t level_n = n;
  const UniformThreadCost cost = reduce_level_cost();
  while (level_n > 1) {
    dev.account_kernel(estimate_uniform_kernel(dev.props(), dev.timing(),
                                               "reduce_min.level(analytic)", level_n,
                                               kReduceTpb, cost));
    level_n = (level_n + kReduceTpb - 1) / kReduceTpb;
  }
  // Result readback, matching the executed form.
  dev.account_transfer(sizeof(std::uint32_t), /*to_device=*/false);
}

namespace {

constexpr Site kScanLoad{4, "scan-load"};
constexpr Site kScanShared{5, "scan-shared"};
constexpr Site kScanStore{6, "scan-store"};
constexpr Site kScanSums{7, "scan-sums"};
constexpr Site kScanOps{8, "scan-ops"};

// Blelloch scan of one kReduceTpb-sized tile per block; per-block totals go
// to `sums[block]`. Phases: load, kTreePhases up-sweep, clear-root,
// kTreePhases down-sweep, store.
void scan_tiles(Device& dev, const DeviceBuffer<std::uint32_t>& in,
                DeviceBuffer<std::uint32_t>& out, std::size_t n,
                DeviceBuffer<std::uint32_t>& sums) {
  const std::size_t blocks = (n + kReduceTpb - 1) / kReduceTpb;
  launch_phased(
      dev, "scan.tiles", blocks * kReduceTpb, kReduceTpb,
      /*phases=*/2 * kTreePhases + 3, [&](int phase, ThreadCtx& ctx) {
        auto sh = ctx.shared_alloc<std::uint32_t>(0, kReduceTpb);
        const std::uint32_t tid = ctx.thread_in_block();
        const std::uint64_t gid = ctx.global_id();
        if (phase == 0) {
          const std::uint32_t v = gid < n ? ctx.load(in, gid, kScanLoad) : 0;
          ctx.shared_store(sh, tid, v, kScanShared);
          return;
        }
        if (phase <= kTreePhases) {
          // Up-sweep: stride doubles each phase.
          const std::uint32_t stride = 1u << (phase - 1);
          ctx.compute(2, kScanOps);
          const std::uint32_t idx = (tid + 1) * stride * 2 - 1;
          if (idx < kReduceTpb) {
            const std::uint32_t a = ctx.shared_load(sh, idx - stride, kScanShared);
            const std::uint32_t b = ctx.shared_load(sh, idx, kScanShared);
            ctx.shared_store(sh, idx, a + b, kScanShared);
          }
          return;
        }
        if (phase == kTreePhases + 1) {
          if (tid == 0) {
            const std::uint32_t total =
                ctx.shared_load(sh, kReduceTpb - 1, kScanShared);
            ctx.store(sums, ctx.block_idx(), total, kScanSums);
            ctx.shared_store(sh, kReduceTpb - 1, 0u, kScanShared);
          }
          return;
        }
        if (phase <= 2 * kTreePhases + 1) {
          // Down-sweep: the pair span halves each phase (256, 128, ..., 2).
          const std::uint32_t span = kReduceTpb >> (phase - kTreePhases - 2);
          ctx.compute(2, kScanOps);
          const std::uint32_t idx = (tid + 1) * span - 1;
          if (idx < kReduceTpb) {
            const std::uint32_t half = span / 2;
            const std::uint32_t left = ctx.shared_load(sh, idx - half, kScanShared);
            const std::uint32_t cur = ctx.shared_load(sh, idx, kScanShared);
            ctx.shared_store(sh, idx - half, cur, kScanShared);
            ctx.shared_store(sh, idx, cur + left, kScanShared);
          }
          return;
        }
        // Final store.
        if (gid < n) {
          ctx.store(out, gid, ctx.shared_load(sh, tid, kScanShared), kScanStore);
        }
      });
}

// Adds scanned block sums back onto every tile after the first.
void add_block_offsets(Device& dev, DeviceBuffer<std::uint32_t>& data, std::size_t n,
                       const DeviceBuffer<std::uint32_t>& offsets) {
  launch(dev, "scan.add_offsets", GridSpec::dense(n, kReduceTpb), [&](ThreadCtx& ctx) {
    const std::uint64_t gid = ctx.global_id();
    const std::uint32_t off = ctx.load(offsets, ctx.block_idx(), kScanSums);
    ctx.compute(1, kScanOps);
    ctx.store(data, gid, ctx.load(data, gid, kScanLoad) + off, kScanStore);
  });
}

}  // namespace

void exclusive_scan(Device& dev, const DeviceBuffer<std::uint32_t>& values,
                    DeviceBuffer<std::uint32_t>& out, std::size_t n) {
  AGG_CHECK(n >= 1 && n <= values.size() && n <= out.size());
  const std::size_t blocks = (n + kReduceTpb - 1) / kReduceTpb;
  auto sums = dev.alloc<std::uint32_t>(blocks, "scan.sums");
  scan_tiles(dev, values, out, n, sums);
  if (blocks > 1) {
    auto scanned_sums = dev.alloc<std::uint32_t>(blocks, "scan.sums_scanned");
    exclusive_scan(dev, sums, scanned_sums, blocks);
    add_block_offsets(dev, out, n, scanned_sums);
    dev.free(scanned_sums);
  }
  dev.free(sums);
}

void charge_scan(Device& dev, std::uint64_t n) {
  // Blelloch scan: upsweep + downsweep over the array, then a block-sums
  // pass over n / kReduceTpb elements, recursively.
  std::uint64_t level_n = n;
  while (level_n > 1) {
    UniformThreadCost c;
    c.ops = 2.0 * kTreePhases + 8.0;  // up+down sweep shared traffic
    c.mem_instrs = 2;                 // load input, store output
    c.transactions_per_warp = 2.0 * kWarpSize * sizeof(std::uint32_t) / 128.0;
    dev.account_kernel(estimate_uniform_kernel(dev.props(), dev.timing(),
                                               "scan.level(analytic)", level_n,
                                               kReduceTpb, c));
    level_n = (level_n + kReduceTpb - 1) / kReduceTpb;
  }
}

}  // namespace simt::prim
