// exec — the one query executor (paper Fig. 10: one adaptive runtime between
// the Graph API and the kernel variants). Every device query of the public
// API runs through exec::run: the one-shot adaptive::{bfs,sssp,cc,pagerank}
// free functions, adaptive::Session, and svc::GraphService. It is the only
// code that resolves Policy::symmetrize, hands the engines the Graph's cached
// CSC and layout views, nests fixed _REL/_BIN layouts into the resident copy,
// maps payloads back to original ids, and picks gg::run_* (fixed variant) or
// rt::adaptive_* (adaptive policy). exec::run_cpu is its serial-oracle twin.
//
// exec::run is also the fault boundary of a device attempt: on a
// simt::DeviceFault it frees what the attempt pinned into the Resident (a
// CSC, a nested layout, the symmetric closure), reclaims the engines'
// orphaned scratch, and rethrows, so the caller decides between retry,
// failover, degradation and an error Result.
#pragma once

#include <optional>

#include "api/algorithms.h"
#include "api/graph_api.h"
#include "gpu_graph/device_graph.h"
#include "service/result_cache.h"
#include "simt/device.h"

namespace exec {

// One graph's copy on one device: the plain CSR (with weights when the graph
// has them) and the symmetric closure that the first cc query needing it
// pins. The engines pin further views into `dg` on demand (the CSC on a pull
// iteration, the relabelled/binned layouts). Nothing is dropped until
// release(), patch() or a faulted attempt that pinned it.
//
// A Resident with nothing uploaded makes exec::run call-scoped: the engines'
// one-shot forms upload what the query needs and release it before
// returning, and the upload is part of the query's metrics.
struct Resident {
  gg::DeviceGraph dg;
  std::optional<gg::DeviceGraph> sym;

  bool uploaded() const { return dg.row_offsets.valid(); }
  // Replaces whatever was resident with a fresh upload of g's CSR.
  void upload(simt::Device& dev, const adaptive::Graph& g);
  // Brings the CSR to g (the post-delta graph over the same nodes) by
  // re-sending the dirty regions, and drops the closure, which the next cc
  // query re-derives. A fault leaves the copy half-patched: release() it.
  gg::DeviceGraph::PatchStats patch(simt::Device& dev,
                                    const adaptive::Graph& g);
  void release(simt::Device& dev);
};

// One query, as svc::QueryRequest asks it, plus the stream it runs on.
struct Query {
  svc::Algo algo = svc::Algo::bfs;
  graph::NodeId source = 0;   // bfs / sssp
  double damping = 0.85;      // pagerank
  adaptive::Policy policy{};  // adaptive or fixed_variant
  simt::StreamId stream = 0;
};

// Runs q on dev, against `res` when it is uploaded (call-scoped otherwise).
// Aborts on a bad request (source out of range, sssp on an unweighted
// graph, a cpu_serial policy); throws simt::DeviceFault as described above.
svc::Payload run(simt::Device& dev, Resident& res, const adaptive::Graph& g,
                 const Query& q);

// The serial CPU oracle's exact answer to q (cpu_wall_ms set, degraded not),
// with its modeled single-core time (cpu::CpuModel::core_i7).
struct CpuAnswer {
  svc::Payload payload;
  double modeled_us = 0;
};
CpuAnswer run_cpu(const adaptive::Graph& g, const Query& q);

// The CSR an arc-closure algorithm (cc, mst) runs on under `s`: g.csr() or
// its cached symmetrized closure.
const graph::Csr& arc_closure(const adaptive::Graph& g, adaptive::Symmetrize s);

}  // namespace exec
