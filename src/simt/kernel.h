// Kernel-side programming model: ThreadCtx is the device handle a kernel body
// receives per thread; every architectural interaction (global loads/stores,
// atomics, arithmetic work, shared memory) goes through it so the warp tracer
// can observe the access pattern.
//
// Execution semantics (documented contract):
//  * lanes of a warp run one after another in lane order, warps in warp
//    order; blocks run in block order on one host thread;
//  * there is no intra-kernel barrier; kernels that need block-wide
//    synchronization are written as *phased* kernels (launch_phased), where
//    each phase boundary is a __syncthreads() equivalent;
//  * atomics are sequentially consistent under the serial order above.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "simt/memory.h"
#include "simt/warp_trace.h"

namespace simt {

// Per-block shared memory arena; slot-addressed so every thread of the block
// resolves the same allocation.
class BlockSharedState {
 public:
  void reset(std::uint64_t capacity_bytes) {
    capacity_ = capacity_bytes;
    used_ = 0;
    slots_.clear();
    if (storage_.size() < capacity_bytes) storage_.resize(capacity_bytes);
  }

  // Returns the byte offset of `slot`, allocating it on first request.
  std::size_t acquire(std::uint32_t slot, std::size_t bytes) {
    if (slot >= slots_.size()) slots_.resize(slot + 1, kUnallocated);
    if (slots_[slot] == kUnallocated) {
      AGG_CHECK_MSG(used_ + bytes <= capacity_, "shared memory overflow");
      slots_[slot] = used_;
      used_ += (bytes + 3) / 4 * 4;  // 4-byte banked words
    }
    return slots_[slot];
  }

  std::byte* data() { return storage_.data(); }

 private:
  static constexpr std::size_t kUnallocated = static_cast<std::size_t>(-1);
  std::vector<std::byte> storage_;
  std::vector<std::size_t> slots_;
  std::size_t used_ = 0;
  std::uint64_t capacity_ = 0;
};

// Handle to a shared-memory allocation; word_base positions it for the
// bank-conflict model.
template <typename T>
struct SharedArray {
  T* data = nullptr;
  std::uint32_t word_base = 0;
  std::size_t count = 0;
};

class ThreadCtx {
 public:
  ThreadCtx(WarpTrace& trace, BlockSharedState* shared, std::uint64_t block_idx,
            std::uint32_t tpb, std::uint64_t grid_blocks)
      : trace_(&trace),
        shared_(shared),
        block_idx_(block_idx),
        tpb_(tpb),
        grid_blocks_(grid_blocks) {}

  void bind_lane(std::uint32_t thread_in_block) {
    thread_in_block_ = thread_in_block;
    const auto lane = static_cast<int>(thread_in_block % kWarpSize);
    // The tracer keeps only the live lane's counters per site (warp_trace.h),
    // so the lanes of one warp must run in non-decreasing order.
    AGG_DCHECK(lane >= trace_->lane());
    trace_->set_lane(lane);
  }

  std::uint64_t block_idx() const { return block_idx_; }
  std::uint32_t thread_in_block() const { return thread_in_block_; }
  std::uint32_t block_dim() const { return tpb_; }
  std::uint64_t grid_blocks() const { return grid_blocks_; }
  std::uint64_t global_id() const { return block_idx_ * tpb_ + thread_in_block_; }

  // ---- global memory ----
  template <typename T>
  T load(const DeviceBuffer<T>& b, std::size_t i, Site site) {
    AGG_DCHECK(i < b.size());
    trace_->on_global(site, b.addr_of(i));
    return b.host_view()[i];
  }

  template <typename T>
  void store(DeviceBuffer<T>& b, std::size_t i, T v, Site site) {
    AGG_DCHECK(i < b.size());
    trace_->on_global(site, b.addr_of(i));
    b.host_view()[i] = v;
  }

  // ---- atomics (return the previous value, CUDA-style) ----
  template <typename T>
  T atomic_min(DeviceBuffer<T>& b, std::size_t i, T v, Site site) {
    AGG_DCHECK(i < b.size());
    trace_->on_atomic(site, b.addr_of(i));
    T& cell = b.host_view()[i];
    const T old = cell;
    if (v < cell) cell = v;
    return old;
  }

  template <typename T>
  T atomic_add(DeviceBuffer<T>& b, std::size_t i, T v, Site site) {
    AGG_DCHECK(i < b.size());
    trace_->on_atomic(site, b.addr_of(i));
    T& cell = b.host_view()[i];
    const T old = cell;
    cell = static_cast<T>(cell + v);
    return old;
  }

  template <typename T>
  T atomic_cas(DeviceBuffer<T>& b, std::size_t i, T expected, T desired, Site site) {
    AGG_DCHECK(i < b.size());
    trace_->on_atomic(site, b.addr_of(i));
    T& cell = b.host_view()[i];
    const T old = cell;
    if (cell == expected) cell = desired;
    return old;
  }

  // ---- arithmetic / control work (ops are cycles on a CUDA core) ----
  void compute(std::uint64_t ops, Site site) { trace_->on_compute(site, ops); }

  // ---- shared memory ----
  template <typename T>
  SharedArray<T> shared_alloc(std::uint32_t slot, std::size_t count) {
    AGG_CHECK_MSG(shared_ != nullptr, "shared memory requires launch_phased");
    const std::size_t off = shared_->acquire(slot, count * sizeof(T));
    return SharedArray<T>{reinterpret_cast<T*>(shared_->data() + off),
                          static_cast<std::uint32_t>(off / 4), count};
  }

  template <typename T>
  T shared_load(const SharedArray<T>& a, std::size_t i, Site site) {
    AGG_DCHECK(i < a.count);
    trace_->on_shared(site, a.word_base + static_cast<std::uint32_t>(i * sizeof(T) / 4));
    return a.data[i];
  }

  template <typename T>
  void shared_store(SharedArray<T>& a, std::size_t i, T v, Site site) {
    AGG_DCHECK(i < a.count);
    trace_->on_shared(site, a.word_base + static_cast<std::uint32_t>(i * sizeof(T) / 4));
    a.data[i] = v;
  }

 private:
  WarpTrace* trace_;
  BlockSharedState* shared_;
  std::uint64_t block_idx_;
  std::uint32_t tpb_;
  std::uint64_t grid_blocks_;
  std::uint32_t thread_in_block_ = 0;
};

// Cost of evaluating the working-set predicate for threads/blocks that turn
// out to be inactive (e.g. `if (!bitmap[id]) return;`). The launcher charges
// this analytically for warps it does not execute, and records the same
// access for the inactive lanes of partially-active warps.
struct Predicate {
  std::uint64_t base_addr = 0;  // 0 = no predicate (dense launch)
  std::uint32_t stride = 0;     // bytes between consecutive ids; 0 = broadcast
  std::uint32_t id_shift = 0;   // element id = thread id >> id_shift
                                // (warp-centric mapping: 5)
  double ops = 2.0;             // branch + index arithmetic

  bool enabled() const { return base_addr != 0; }
};

// Reserved site ids for launcher-recorded predicate accesses; kernel bodies
// may use ids 0..17.
inline constexpr Site kPredicateSite{19, "ws-predicate"};
inline constexpr Site kPredicateOpsSite{18, "ws-predicate-ops"};

}  // namespace simt
