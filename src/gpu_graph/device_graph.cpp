#include "gpu_graph/device_graph.h"

#include <cmath>

#include "graph/transform.h"

namespace gg {

DeviceGraph DeviceGraph::upload(simt::Device& dev, const graph::Csr& g,
                                bool with_weights) {
  AGG_CHECK(!with_weights || g.has_weights());
  DeviceGraph dg;
  dg.num_nodes = g.num_nodes;
  dg.num_edges = g.num_edges();
  dg.avg_outdegree = g.num_nodes > 0 ? static_cast<double>(g.num_edges()) /
                                           static_cast<double>(g.num_nodes)
                                     : 0.0;
  double sq = 0.0;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    const double d = static_cast<double>(g.degree(v)) - dg.avg_outdegree;
    sq += d * d;
  }
  dg.outdeg_stddev =
      g.num_nodes > 0 ? std::sqrt(sq / static_cast<double>(g.num_nodes)) : 0.0;
  try {
    dg.row_offsets =
        dev.alloc<std::uint32_t>(g.row_offsets.size(), "csr.row_offsets");
    dev.memcpy_h2d(dg.row_offsets,
                   std::span<const std::uint32_t>(g.row_offsets));
    dg.col_indices =
        dev.alloc<std::uint32_t>(g.col_indices.size(), "csr.col_indices");
    dev.memcpy_h2d(dg.col_indices,
                   std::span<const std::uint32_t>(g.col_indices));
    if (with_weights) {
      dg.weights = dev.alloc<std::uint32_t>(g.weights.size(), "csr.weights");
      dev.memcpy_h2d(dg.weights, std::span<const std::uint32_t>(g.weights));
    }
  } catch (const simt::DeviceFault&) {
    // A faulted upload leaves no half copy behind: callers never see it, so
    // nothing else could free its accounting.
    dg.release(dev);
    throw;
  }
  return dg;
}

namespace {

// Re-sends the dirty region of `host` into `buf`. The common prefix is
// skipped; when logical sizes match the common suffix is skipped too (a
// net-zero delta leaves the tail in place), otherwise everything from the
// first mismatch to the new end shifted and must be re-sent. `old_n` is the
// previous logical element count (buffer capacity may exceed both).
std::uint64_t patch_array(simt::Device& dev,
                          simt::DeviceBuffer<std::uint32_t>& buf,
                          std::span<const std::uint32_t> host,
                          std::size_t old_n) {
  const auto view = buf.host_view();
  const std::size_t common = std::min(old_n, host.size());
  std::size_t first = 0;
  while (first < common && view[first] == host[first]) ++first;
  std::size_t last = host.size();  // one past the last dirty element
  if (old_n == host.size()) {
    while (last > first && view[last - 1] == host[last - 1]) --last;
  }
  if (first >= last) return 0;
  dev.memcpy_h2d(buf, host.subspan(first, last - first), first);
  return (last - first) * sizeof(std::uint32_t);
}

void free_rep(simt::Device& dev, DeviceGraph::RepResident& r) {
  if (r.dg) {
    r.dg->release(dev);
    r.dg.reset();
  }
  if (r.new_id.valid()) dev.free(r.new_id);
  if (r.old_id.valid()) dev.free(r.old_id);
}

}  // namespace

DeviceGraph::PatchStats DeviceGraph::patch(simt::Device& dev,
                                           const graph::Csr& g,
                                           bool with_weights) {
  AGG_CHECK(row_offsets.valid() && col_indices.valid());
  AGG_CHECK(g.num_nodes == num_nodes);
  AGG_CHECK(with_weights == weights.valid());
  AGG_CHECK(!with_weights || g.has_weights());

  PatchStats ps;
  const std::uint64_t m_old = num_edges;
  const std::uint64_t m_new = g.num_edges();
  if (m_new > col_indices.size()) {
    // Compacting rebuild: the overlay outgrew the buffer. Re-allocate with
    // slack so a steady trickle of inserts amortizes to O(1) reallocations.
    ps.rebuilt = true;
    const std::size_t cap =
        static_cast<std::size_t>(m_new + m_new / 8 + 64);
    dev.free(col_indices);
    col_indices = dev.alloc<std::uint32_t>(cap, "csr.col_indices");
    dev.memcpy_h2d(col_indices, std::span<const std::uint32_t>(g.col_indices));
    if (with_weights) {
      dev.free(weights);
      weights = dev.alloc<std::uint32_t>(cap, "csr.weights");
      dev.memcpy_h2d(weights, std::span<const std::uint32_t>(g.weights));
    }
    dev.memcpy_h2d(row_offsets, std::span<const std::uint32_t>(g.row_offsets));
    ps.bytes_sent = (g.row_offsets.size() + m_new * (with_weights ? 2 : 1)) *
                    sizeof(std::uint32_t);
  } else {
    ps.bytes_sent += patch_array(
        dev, row_offsets, std::span<const std::uint32_t>(g.row_offsets),
        g.row_offsets.size());
    ps.bytes_sent += patch_array(
        dev, col_indices, std::span<const std::uint32_t>(g.col_indices),
        static_cast<std::size_t>(m_old));
    if (with_weights) {
      ps.bytes_sent += patch_array(
          dev, weights, std::span<const std::uint32_t>(g.weights),
          static_cast<std::size_t>(m_old));
    }
  }
  num_edges = m_new;
  avg_outdegree = num_nodes > 0 ? static_cast<double>(m_new) /
                                      static_cast<double>(num_nodes)
                                : 0.0;
  double sq = 0.0;
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    const double d = static_cast<double>(g.degree(v)) - avg_outdegree;
    sq += d * d;
  }
  outdeg_stddev =
      num_nodes > 0 ? std::sqrt(sq / static_cast<double>(num_nodes)) : 0.0;
  // The CSC view no longer matches; drop it (lazily rebuilt on demand).
  if (in_row_offsets.valid()) dev.free(in_row_offsets);
  if (in_col_indices.valid()) dev.free(in_col_indices);
  if (in_weights.valid()) dev.free(in_weights);
  // Same for the alternate-representation residents: a delta changes both
  // the permutation (degrees moved) and the edge arrays, so the relabelled
  // and binned layouts are rebuilt from the post-delta host views on the
  // next query that wants them.
  free_rep(dev, rel);
  free_rep(dev, bin);
  return ps;
}

DeviceGraph::RepResident& DeviceGraph::rep_slot(Representation kind) {
  AGG_CHECK(kind == Representation::relabelled ||
            kind == Representation::binned);
  return kind == Representation::relabelled ? rel : bin;
}

bool DeviceGraph::rep_resident(Representation kind, bool with_weights) const {
  const RepResident& r = kind == Representation::relabelled ? rel : bin;
  return r.dg != nullptr && (!with_weights || r.dg->weights.valid());
}

DeviceGraph& DeviceGraph::ensure_rep_resident(simt::Device& dev,
                                              Representation kind,
                                              const graph::RelabeledGraph& view,
                                              bool with_weights) {
  RepResident& r = rep_slot(kind);
  const bool widen = r.dg && with_weights && !r.dg->weights.valid();
  if (widen || !r.dg) dev.check_pin("nested layout");
  if (widen) {
    // Weight mode widened since the layout was pinned: rebuild.
    free_rep(dev, r);
  }
  if (!r.dg) {
    r.dg = std::make_unique<DeviceGraph>(
        DeviceGraph::upload(dev, view.csr, with_weights));
    r.new_id = dev.alloc<std::uint32_t>(view.new_id.size(), "rep.new_id");
    dev.memcpy_h2d(r.new_id, std::span<const std::uint32_t>(view.new_id));
    r.old_id = dev.alloc<std::uint32_t>(view.old_id.size(), "rep.old_id");
    dev.memcpy_h2d(r.old_id, std::span<const std::uint32_t>(view.old_id));
  }
  return *r.dg;
}

void DeviceGraph::upload_csc(simt::Device& dev, const graph::Csr& csc,
                             bool with_weights) {
  AGG_CHECK(csc.num_nodes == num_nodes && csc.num_edges() == num_edges);
  AGG_CHECK(!with_weights || csc.has_weights());
  if (!in_row_offsets.valid()) {
    in_row_offsets =
        dev.alloc<std::uint32_t>(csc.row_offsets.size(), "csc.row_offsets");
    dev.memcpy_h2d(in_row_offsets,
                   std::span<const std::uint32_t>(csc.row_offsets));
    in_col_indices =
        dev.alloc<std::uint32_t>(csc.col_indices.size(), "csc.col_indices");
    dev.memcpy_h2d(in_col_indices,
                   std::span<const std::uint32_t>(csc.col_indices));
  }
  if (with_weights && !in_weights.valid()) {
    in_weights = dev.alloc<std::uint32_t>(csc.weights.size(), "csc.weights");
    dev.memcpy_h2d(in_weights, std::span<const std::uint32_t>(csc.weights));
  }
}

DeviceGraph DeviceGraph::alias() const {
  DeviceGraph a;
  a.num_nodes = num_nodes;
  a.num_edges = num_edges;
  a.avg_outdegree = avg_outdegree;
  a.outdeg_stddev = outdeg_stddev;
  a.row_offsets = row_offsets.alias();
  a.col_indices = col_indices.alias();
  a.weights = weights.alias();
  a.in_row_offsets = in_row_offsets.alias();
  a.in_col_indices = in_col_indices.alias();
  a.in_weights = in_weights.alias();
  for (Representation kind :
       {Representation::relabelled, Representation::binned}) {
    const RepResident& from = kind == Representation::relabelled ? rel : bin;
    RepResident& to = a.rep_slot(kind);
    if (from.dg) to.dg = std::make_unique<DeviceGraph>(from.dg->alias());
    to.new_id = from.new_id.alias();
    to.old_id = from.old_id.alias();
  }
  return a;
}

void DeviceGraph::release(simt::Device& dev) {
  dev.free(row_offsets);
  dev.free(col_indices);
  if (weights.valid()) dev.free(weights);
  if (in_row_offsets.valid()) dev.free(in_row_offsets);
  if (in_col_indices.valid()) dev.free(in_col_indices);
  if (in_weights.valid()) dev.free(in_weights);
  free_rep(dev, rel);
  free_rep(dev, bin);
}

void ensure_csc_resident(simt::Device& dev, DeviceGraph& dg,
                         const graph::Csr& g, const graph::Csr* host_csc,
                         bool with_weights,
                         std::optional<graph::Csr>& scratch) {
  if (dg.csc_resident(with_weights)) return;
  dev.check_pin("csc");
  if (host_csc == nullptr) {
    if (!scratch) scratch = graph::build_csc(g);
    host_csc = &*scratch;
  }
  dg.upload_csc(dev, *host_csc, with_weights);
}

}  // namespace gg
