#include "gpu_graph/workset.h"

#include "simt/launch.h"
#include "simt/primitives.h"

namespace gg {
namespace {

constexpr simt::Site kBitmapStore{0, "gen.bitmap-store"};
constexpr simt::Site kQueueTail{1, "gen.queue-tail"};
constexpr simt::Site kQueueStore{2, "gen.queue-store"};
constexpr simt::Site kUpdateClear{3, "gen.update-clear"};
constexpr simt::Site kChangedStore{4, "gen.changed"};
constexpr simt::Site kFrontierClear{5, "gen.frontier-clear"};

constexpr std::uint32_t kGenTpb = 256;

}  // namespace

Workset::Workset(simt::Device& dev, std::uint32_t num_nodes, bool scan_gen)
    : n_(num_nodes), scan_gen_(scan_gen) {
  bitmap_ = dev.alloc<std::uint8_t>(num_nodes, "ws.bitmap");
  queue_ = dev.alloc<std::uint32_t>(num_nodes, "ws.queue");
  queue_len_ = dev.alloc<std::uint32_t>(1, "ws.queue_len");
  update_ = dev.alloc<std::uint8_t>(num_nodes, "ws.update");
  changed_ = dev.alloc<std::uint32_t>(1, "ws.changed");
  dev.fill(bitmap_, std::uint8_t{0});
  dev.fill(update_, std::uint8_t{0});
  dev.seed_scalar(queue_len_, 0, 0u);
}

void Workset::release(simt::Device& dev) {
  dev.free(bitmap_);
  dev.free(queue_);
  dev.free(queue_len_);
  dev.free(update_);
  dev.free(changed_);
}

void Workset::init_source(simt::Device& dev, std::uint32_t source, WorksetRepr repr) {
  AGG_CHECK(source < n_);
  if (repr == WorksetRepr::bitmap) {
    dev.seed_scalar(bitmap_, source, std::uint8_t{1});
  } else {
    dev.seed_scalar(queue_, 0, source);
    dev.seed_scalar(queue_len_, 0, 1u);
  }
}

std::uint64_t Workset::generate(simt::Device& dev, WorksetRepr repr,
                                std::span<const std::uint32_t> updated) {
  // Counter resets ahead of the generation kernel. In the reference CUDA
  // implementation the previous computation kernel's epilogue clears these
  // scalars in place (the [33]-style queue keeps its tail counter resident),
  // so no transfer or extra launch is charged — the reset below is the
  // functional equivalent only.
  if (repr == WorksetRepr::queue) {
    queue_len_.host_view()[0] = 0;
  } else {
    changed_.host_view()[0] = 0;
  }

  simt::Predicate pred;
  pred.base_addr = update_.base_addr();
  pred.stride = 1;
  pred.ops = 2;
  const simt::GridSpec grid = simt::GridSpec::over_threads(n_, kGenTpb, updated, pred);

  if (repr == WorksetRepr::bitmap) {
    simt::launch(dev, "workset_gen.bitmap", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      ctx.store(bitmap_, id, std::uint8_t{1}, kBitmapStore);
      ctx.store(update_, id, std::uint8_t{0}, kUpdateClear);
      ctx.store(changed_, 0, 1u, kChangedStore);
    });
  } else if (!scan_gen_) {
    // Queue slot assignment is the atomic_add return value, so the queue
    // lists ids in the order their atomics land.
    simt::launch(dev, "workset_gen.queue", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t pos = ctx.atomic_add(queue_len_, 0, 1u, kQueueTail);
      ctx.store(queue_, pos, id, kQueueStore);
      ctx.store(update_, id, std::uint8_t{0}, kUpdateClear);
    });
  } else {
    // Scan-based compaction: an exclusive prefix scan over the n update
    // flags yields each set flag's queue offset; a scatter pass then writes
    // the ids. No tail-counter atomics — the cost is the scan's extra
    // passes over all n flags regardless of |WS|.
    simt::prim::charge_scan(dev, n_);
    // The scatter models its scan offsets with a host-side counter
    // incremented in thread order.
    simt::launch(dev, "workset_gen.queue_scan", grid, [&](simt::ThreadCtx& ctx) {
      const auto id = static_cast<std::uint32_t>(ctx.global_id());
      const std::uint32_t pos = queue_len_.host_view()[0]++;  // offset from scan
      ctx.compute(2, kQueueTail);
      ctx.store(queue_, pos, id, kQueueStore);
      ctx.store(update_, id, std::uint8_t{0}, kUpdateClear);
    });
  }
  return updated.size();
}

void Workset::clear_frontier_bitmap(simt::Device& dev,
                                    std::span<const std::uint32_t> frontier) {
  simt::Predicate pred;
  pred.base_addr = bitmap_.base_addr();
  pred.stride = 1;
  pred.ops = 2;
  const simt::GridSpec grid =
      simt::GridSpec::over_threads(n_, kGenTpb, frontier, pred);
  simt::launch(dev, "workset_gen.frontier_clear", grid, [&](simt::ThreadCtx& ctx) {
    const auto id = static_cast<std::uint32_t>(ctx.global_id());
    ctx.store(bitmap_, id, std::uint8_t{0}, kFrontierClear);
  });
}

void Workset::charge_termination_readback(simt::Device& dev) const {
  dev.account_transfer(sizeof(std::uint32_t), /*to_device=*/false);
}

void Workset::charge_bitmap_count_kernel(simt::Device& dev) const {
  // Population-count kernel over the update/bitmap vector: each thread loads
  // a flag, blocks tree-reduce in shared memory, one atomicAdd per block on
  // the global counter (paper Sec. VI.E: "running a separate kernel").
  simt::UniformThreadCost cost;
  cost.ops = 2.0 + 2.0 * 8.0;  // predicate + shared-memory tree reduction
  cost.mem_instrs = 1;
  cost.transactions_per_warp =
      simt::kWarpSize * 1.0 / dev.timing().segment_bytes;  // 1-byte flags
  simt::KernelStats ks = simt::estimate_uniform_kernel(
      dev.props(), dev.timing(), "ws_count(analytic)", n_, kGenTpb, cost);
  // One global atomicAdd per block, all on the same counter address.
  ks.max_atomic_same_addr = ks.blocks;
  ks.atomics += static_cast<double>(ks.blocks);
  const double cycles_per_us = dev.props().clock_ghz * 1e3;
  ks.atomic_time_us = static_cast<double>(ks.max_atomic_same_addr) *
                      dev.timing().atomic_serial_cycles / cycles_per_us;
  ks.time_us = std::max({ks.sm_time_us, ks.bw_time_us, ks.atomic_time_us}) +
               dev.timing().launch_overhead_us;
  dev.account_kernel(ks);
  // Count readback.
  dev.account_transfer(sizeof(std::uint32_t), /*to_device=*/false);
}

}  // namespace gg
