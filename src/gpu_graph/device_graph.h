// Device-resident CSR (paper Sec. V.A): node vector, edge vector, optional
// weight vector, uploaded once per traversal with transfer costs accounted.
// The pull (gather) kernels additionally need the CSC view; it is uploaded
// lazily — upload_csc() on first pull iteration — so push-only traversals
// never pay for it, and it stays resident alongside the CSR (Session pins
// keep it across queries; release() drops both).
#pragma once

#include <memory>
#include <optional>

#include "graph/csr.h"
#include "graph/transform.h"
#include "gpu_graph/variant.h"
#include "simt/device.h"

namespace gg {

struct DeviceGraph {
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  double avg_outdegree = 0;
  double outdeg_stddev = 0;
  simt::DeviceBuffer<std::uint32_t> row_offsets;  // n + 1
  simt::DeviceBuffer<std::uint32_t> col_indices;  // m
  simt::DeviceBuffer<std::uint32_t> weights;      // m if weighted, else empty
  // CSC (in-neighbor) view, empty until upload_csc().
  simt::DeviceBuffer<std::uint32_t> in_row_offsets;  // n + 1
  simt::DeviceBuffer<std::uint32_t> in_col_indices;  // m
  simt::DeviceBuffer<std::uint32_t> in_weights;      // m if weighted

  static DeviceGraph upload(simt::Device& dev, const graph::Csr& g,
                            bool with_weights);

  // Incremental patch toward `g` (the post-delta CSR of the same node set).
  // Diffs the resident arrays against `g` and re-sends only the dirty
  // regions; the edge/weight buffers keep capacity slack so small growth
  // never reallocates (num_edges tracks the logical size). Falls back to a
  // compacting rebuild — free + slack realloc + full re-upload — when the
  // new edge count exceeds the buffer capacity. The CSC view is invalidated
  // per-structure (freed; re-uploaded lazily on the next pull iteration).
  // Degree statistics are recomputed. Requires a resident CSR with the same
  // num_nodes and weight mode.
  struct PatchStats {
    bool rebuilt = false;
    std::uint64_t bytes_sent = 0;  // h2d payload of this patch
  };
  PatchStats patch(simt::Device& dev, const graph::Csr& g, bool with_weights);
  // Uploads the CSC view (see graph::build_csc); `csc` must describe the
  // same graph as the resident CSR. Idempotent per residency: callers guard
  // with csc_resident().
  void upload_csc(simt::Device& dev, const graph::Csr& csc, bool with_weights);
  bool csc_resident(bool with_weights) const {
    return in_row_offsets.valid() && (!with_weights || in_weights.valid());
  }

  // Alternate-representation residents (DESIGN.md "Representation
  // adaptivity"): the degree-relabelled / binned-padded CSR of the same
  // logical graph, pinned alongside the plain CSR with both id maps so the
  // engines can migrate payloads across id spaces on-device. Uploaded
  // lazily on first use; patch() and release() drop them (a later query
  // under the same representation rebuilds from the host view). The nested
  // DeviceGraph makes this type move-only.
  struct RepResident {
    std::unique_ptr<DeviceGraph> dg;
    simt::DeviceBuffer<std::uint32_t> new_id;  // n: original -> slot
    simt::DeviceBuffer<std::uint32_t> old_id;  // slots: slot -> original (kInfinity = pad)
  };
  RepResident rel;
  RepResident bin;

  RepResident& rep_slot(Representation kind);
  bool rep_resident(Representation kind, bool with_weights) const;
  // Makes the `kind` resident match `view` (idempotent per residency;
  // re-uploads when the weight mode widens). Returns the nested resident.
  DeviceGraph& ensure_rep_resident(simt::Device& dev, Representation kind,
                                   const graph::RelabeledGraph& view,
                                   bool with_weights);

  void release(simt::Device& dev);

  // A copy of every handle, nested layouts included, sharing the owner's
  // allocations (simt::DeviceBuffer::alias): what a recording reads, so the
  // owner may pin, replace or release meanwhile. Never release() an alias.
  DeviceGraph alias() const;
};

// Makes the CSC view resident ahead of a pull iteration. `host_csc` is the
// caller-provided CSC (exec::run passes Graph's cached copy); when null,
// the transpose is built once into `scratch` and kept for the rest of the
// traversal.
void ensure_csc_resident(simt::Device& dev, DeviceGraph& dg,
                         const graph::Csr& g, const graph::Csr* host_csc,
                         bool with_weights,
                         std::optional<graph::Csr>& scratch);

// The one-shot form of an engine whose resident-graph form is
// `resident(dg)` (paper Fig. 8 lines 1-3: create, initialize, transfer).
// On `stream` it uploads `g`, runs the resident form and releases the
// upload. The upload's PCIe cost belongs to this query, so total_us and
// transfer_us are measured around all three.
template <typename Resident>
auto run_one_shot(simt::Device& dev, const graph::Csr& g, bool with_weights,
                  simt::StreamId stream, Resident&& resident) {
  simt::StreamGuard sguard(dev, stream);
  const simt::StatsMark t_begin = dev.stats_mark();
  DeviceGraph dg = DeviceGraph::upload(dev, g, with_weights);
  auto result = resident(dg);
  dg.release(dev);
  const simt::StatsMark t_end = dev.stats_mark();
  result.metrics.total_us = t_end.clock.us - t_begin.clock.us;
  result.metrics.transfer_us =
      t_end.stats.transfer_time_us - t_begin.stats.transfer_time_us;
  return result;
}

}  // namespace gg
