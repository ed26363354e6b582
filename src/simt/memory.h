// Simulated device global memory.
//
// Device allocations carry a simulated base address (assigned by a bump
// allocator) so the coalescing model can reason about the addresses a warp
// touches, and a host-side backing store that provides functional semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace simt {

// Assigns simulated device addresses. 256-byte alignment mirrors cudaMalloc.
class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}
  // A space whose first allocation lands at `first_address` (a multiple of
  // the alignment): a recording device's scratch, placed above every buffer
  // its real device holds (Device::recorder).
  AddressSpace(std::uint64_t capacity_bytes, std::uint64_t first_address)
      : capacity_(capacity_bytes), next_(first_address) {
    AGG_CHECK(first_address >= kAlignment && first_address % kAlignment == 0);
  }

  std::uint64_t allocate(std::uint64_t bytes);
  void release(std::uint64_t bytes);  // accounting only; addresses not reused

  // Whether `bytes` more would fit; Device uses this to surface exhaustion
  // as a typed DeviceFault instead of tripping allocate()'s hard check.
  bool can_allocate(std::uint64_t bytes) const {
    const std::uint64_t aligned = (bytes + kAlignment - 1) / kAlignment * kAlignment;
    return in_use_ + aligned <= capacity_;
  }

  // Rolls the in-use accounting back to at most an earlier mark. Recovery
  // path for buffers orphaned by a DeviceFault unwinding through an engine
  // (their destructors free host storage but cannot reach the address
  // space). A no-op when in-use is already below the mark — legitimate
  // releases may have landed since it was taken.
  void reclaim_to(std::uint64_t bytes_in_use) {
    if (bytes_in_use < in_use_) in_use_ = bytes_in_use;
  }

  std::uint64_t bytes_in_use() const { return in_use_; }
  std::uint64_t capacity() const { return capacity_; }
  // The base address the next allocation receives. Addresses only grow.
  std::uint64_t next_address() const { return next_; }

  static constexpr std::uint64_t kAlignment = 256;

 private:
  std::uint64_t capacity_;
  std::uint64_t next_ = kAlignment;  // 0 stays an invalid address
  std::uint64_t in_use_ = 0;
};

// A typed device allocation. Move-only; the backing store lives on the host
// and is only legitimately touched through ThreadCtx (kernels) or Device
// transfer/fill operations — direct host access is exposed for tests and
// result download via host_view().
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : store_(std::move(o.store_)),
        data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        base_(o.base_),
        name_(std::move(o.name_)) {}
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    store_ = std::move(o.store_);
    data_ = std::exchange(o.data_, nullptr);
    size_ = std::exchange(o.size_, 0);
    base_ = o.base_;
    name_ = std::move(o.name_);
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  // A second handle on the same allocation and backing store, which stays
  // alive while any handle does. A recording reads a resident structure
  // through aliases, so the owner may drop or replace its handles meanwhile
  // (DESIGN.md "Query-parallel drains"). Never free() an alias.
  DeviceBuffer alias() const {
    DeviceBuffer b;
    b.store_ = store_;
    b.data_ = data_;
    b.size_ = size_;
    b.base_ = base_;
    b.name_ = name_;
    return b;
  }

  bool valid() const { return base_ != 0; }
  std::size_t size() const { return size_; }
  std::uint64_t size_bytes() const { return size_ * sizeof(T); }
  std::uint64_t base_addr() const { return base_; }
  std::uint64_t addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  const std::string& name() const { return name_; }

  // Functional backing store. Kernels must not use these directly.
  std::span<T> host_view() { return {data_, size_}; }
  std::span<const T> host_view() const { return {data_, size_}; }

 private:
  template <typename U>
  friend class DeviceBufferFactory;

  DeviceBuffer(std::uint64_t base, std::size_t n, std::string name)
      : store_(std::make_shared<T[]>(n)),
        data_(store_.get()),
        size_(n),
        base_(base),
        name_(std::move(name)) {}

  std::shared_ptr<T[]> store_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t base_ = 0;
  std::string name_;
};

// Friend shim so Device (a non-template class) can construct buffers.
template <typename T>
class DeviceBufferFactory {
 public:
  static DeviceBuffer<T> make(std::uint64_t base, std::size_t n, std::string name) {
    return DeviceBuffer<T>(base, n, std::move(name));
  }
};

}  // namespace simt
