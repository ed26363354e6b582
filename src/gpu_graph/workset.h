// Dual-representation device working set (paper Sec. IV.C / V.C / VI).
//
// Both representations are backed by the same *update vector*: the
// computation kernel marks nodes to be processed next by setting update[id],
// and the CUDA_workset_gen kernel (Fig. 9) transforms the update vector into
// bitmap or queue form while clearing it. Because generation starts from the
// shared update vector every iteration, the adaptive runtime can switch
// representation between iterations at no extra cost — the paper's
// "data structures that lead to minimal overhead when switching" design.
//
// Simulation note: the engines keep a host-side shadow of the ids whose
// update flag is set (collected while the computation kernel executes) so
// the generation kernel can be driven as a sparse launch; the device-side
// contents of bitmap/queue/update are nevertheless fully materialized and
// verified by tests.
#pragma once

#include <cstdint>
#include <span>

#include "gpu_graph/variant.h"
#include "simt/device.h"

namespace gg {

class Workset {
 public:
  // `scan_gen` chooses how the queue form is generated (paper Sec. V.C):
  // false is the basic implementation of [33] (one atomicAdd per inserted
  // element, serialized on the tail counter); true is the Merrill et al.
  // optimization the paper cites as orthogonal (an exclusive prefix scan
  // over the update vector computes insertion offsets without atomics, at
  // the cost of extra passes over all n flags). Engines pass
  // EngineOptions::scan_queue_gen. Clears the bitmap and update vector
  // with two fills and the queue length with a seed store; inside an init
  // kernel (gg::InitKernel) all three fold into it.
  Workset(simt::Device& dev, std::uint32_t num_nodes, bool scan_gen = false);
  void release(simt::Device& dev);

  std::uint32_t num_nodes() const { return n_; }

  // Seeds the working set with the traversal source in `repr` form
  // (simt::Device::seed_scalar).
  void init_source(simt::Device& dev, std::uint32_t source, WorksetRepr repr);

  // Runs CUDA_workset_gen: transforms the update vector into `repr`,
  // clearing the flags. `updated` is the sorted host shadow of the set
  // flags. Returns the working-set size (= updated.size()).
  std::uint64_t generate(simt::Device& dev, WorksetRepr repr,
                         std::span<const std::uint32_t> updated);

  // Clears the bitmap bits of `frontier` (the sorted current working set).
  // Pull (gather) iterations read the frontier bitmap concurrently from many
  // threads, so — unlike the push kernels, which clear their own bit as they
  // process it — the consumed frontier is wiped afterwards by this sparse
  // kernel, restoring the bitmap-holds-exactly-the-frontier invariant before
  // the next generate().
  void clear_frontier_bitmap(simt::Device& dev,
                             std::span<const std::uint32_t> frontier);

  // Termination / monitoring costs (paper Sec. VI.E). The per-iteration
  // termination readback is one 4-byte scalar in either form: the queue
  // length (which the host needs anyway for the next grid size) or the
  // bitmap's changed flag. In bitmap form the exact working-set size needs
  // the extra population-count kernel, charged only on sampled iterations.
  void charge_termination_readback(simt::Device& dev) const;
  void charge_bitmap_count_kernel(simt::Device& dev) const;

  simt::DeviceBuffer<std::uint8_t>& bitmap() { return bitmap_; }
  simt::DeviceBuffer<std::uint32_t>& queue() { return queue_; }
  simt::DeviceBuffer<std::uint32_t>& queue_len() { return queue_len_; }
  simt::DeviceBuffer<std::uint8_t>& update() { return update_; }
  const simt::DeviceBuffer<std::uint8_t>& bitmap() const { return bitmap_; }
  const simt::DeviceBuffer<std::uint32_t>& queue() const { return queue_; }
  const simt::DeviceBuffer<std::uint8_t>& update() const { return update_; }

 private:
  std::uint32_t n_ = 0;
  bool scan_gen_ = false;
  simt::DeviceBuffer<std::uint8_t> bitmap_;      // n bytes
  simt::DeviceBuffer<std::uint32_t> queue_;      // n ids
  simt::DeviceBuffer<std::uint32_t> queue_len_;  // scalar
  simt::DeviceBuffer<std::uint8_t> update_;      // n flags
  simt::DeviceBuffer<std::uint32_t> changed_;    // scalar flag
};

}  // namespace gg
