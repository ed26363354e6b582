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

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "api/algorithms.h"
#include "api/graph_api.h"
#include "gpu_graph/bfs_multi_engine.h"
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
  // Handles on the same allocations (gg::DeviceGraph::alias): what a
  // recording reads. Never upload(), patch() or release() an alias.
  Resident alias() const;
};

// Which optional structures `res` holds: the CSR itself, the CSC, each
// nested layout and its CSC (with weights or not), and the closure with the
// same of its own. Replicas of one graph version hold identical contents,
// so a unit reads the same data on any replica with the same signature.
std::uint32_t residency(const Resident& res);

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

// Readies q for recording against `res` on another thread. Builds here the
// Graph structures exec::run(q) reads (the CSC, the closure, the layout
// views), so the recording finds them built by the thread that owns the
// graph. Returns false when q is bound to pin a structure into `res` — the
// closure cc runs on, a fixed _REL/_BIN layout — so recording it would only
// be refused. A policy that only may pull is recorded: if it pulls without
// the CSC resident, the recording is refused at that pin.
bool prepare_recording(const Resident& res, const adaptive::Graph& g,
                       const Query& q);

// The fused multi-source BFS over `sources` on the resident copy under a
// fixed-variant or adaptive `policy`, issued on `stream`: the service's
// batch unit.
gg::GpuBfsMultiResult run_bfs_batch(simt::Device& dev, Resident& res,
                                    const adaptive::Graph& g,
                                    std::span<const graph::NodeId> sources,
                                    const adaptive::Policy& policy,
                                    simt::StreamId stream);

// One device unit — an exec::run attempt or a run_bfs_batch — simulated
// ahead of its turn on a recording device (simt::Device::recorder) against
// an alias of a replica's resident copy, on any host thread (DESIGN.md
// "Query-parallel drains"). It holds the op log and the answer, whose
// metrics keep their clock marks until commit() resolves them.
struct Recording {
  bool ok = false;  // false: the unit tried to pin, or ran out of memory
  bool batch = false;
  simt::OpLog log;
  svc::Payload payload;          // an exec::run unit's answer
  gg::GpuBfsMultiResult levels;  // a batch unit's answer
  // What the answer was computed against: the graph and its version, the
  // replica's residency and the device model.
  const adaptive::Graph* graph = nullptr;
  std::uint64_t version = 0;
  std::uint32_t residency = 0;
  simt::DeviceProps props;
  simt::TimingModel timing;
};

// Records q, or the batch, on `recorder` (simt::Device::recorder of the
// replica's device, made on the thread that owns it) against `res`, an
// alias of the replica's resident copy, on any thread. Mutates neither the
// graph nor the copy; a pin attempt or the recorder's own out-of-memory
// ends the recording with ok == false.
Recording record(simt::Device recorder, const Resident& res,
                 const adaptive::Graph& g, Query q);
Recording record_batch(simt::Device recorder, const Resident& res,
                       const adaptive::Graph& g,
                       std::vector<graph::NodeId> sources,
                       adaptive::Policy policy);

// Commits `rec` as the unit's run on `dev` against `res` and `g`, on
// `stream`, when it is valid there: recorded ok, for g at its current
// version, on the same device model, against the same residency, and with
// allocations that fit now. Replays its op log (simt::Device::replay),
// resolves its metrics' clock marks with what the replay measured, and
// returns true. Returns false, having touched nothing, otherwise: the
// caller runs the unit inline.
bool commit(simt::Device& dev, simt::StreamId stream, const Resident& res,
            const adaptive::Graph& g, Recording& rec);

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
