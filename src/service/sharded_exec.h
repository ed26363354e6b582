// Sharded (vertex-cut) query execution across a fleet.
//
// A graph too large for any single device is split into contiguous row-range
// shards (service/placement.h); each shard is a row-slice CSR in the global
// node-id space resident on its own device. Queries then run as
// level-synchronous BSP supersteps: every owner device processes the part of
// the frontier whose rows it holds with a simt::launch kernel, the host
// merges the per-device discoveries (modeled host compute), and the next
// superstep starts after a barrier at the max ready time of all participating
// streams — emulated with host-compute padding on the lagging streams, since
// streams on different simulated devices have no hardware sync primitive.
//
//  * BFS: per superstep each owner expands its frontier rows and appends
//    newly-seen vertices (against its device-local level array) to a device
//    queue; the host dedupes candidates against the global level array and
//    forms the next frontier. Level-synchronous BFS levels are independent
//    of the partition, so payloads are bit-identical to single-device runs.
//
//  * CC: each shard's row slice is symmetrized locally and solved with the
//    resident per-device CC engine; the host merges the per-shard label
//    arrays with a union-find pass and relabels components to the smallest
//    member id — the same canonical labeling the engines produce. Weakly
//    connected components are partition-independent, so this matches the
//    single-device answer exactly.
//
// SSSP and PageRank have no sharded kernels yet; the serving layer answers
// them with the exact CPU oracle (degraded outcome), never a wrong answer.
//
// Determinism: all device work is host-driven simt accounting, all merges
// are plain host code over deterministic queue contents (a kernel's blocks
// run in block order on the calling thread), so sharded outcomes are
// bit-identical at any --sim-threads.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "api/algorithms.h"
#include "gpu_graph/device_graph.h"
#include "service/placement.h"
#include "simt/cluster.h"
#include "simt/stream.h"

namespace svc {

struct Shard {
  simt::DeviceIndex device = 0;
  graph::NodeId row_begin = 0;
  graph::NodeId row_end = 0;  // exclusive
  graph::Csr csr;             // row-slice, global id space
  gg::DeviceGraph dg;         // resident upload of `csr`
  // Local symmetric closure of the slice, uploaded lazily on first cc().
  graph::Csr sym_csr;
  std::optional<gg::DeviceGraph> sym_dg;
};

struct ShardedGraph {
  std::uint32_t num_nodes = 0;
  bool with_weights = false;
  std::vector<Shard> shards;

  // Shard owning vertex v's out-edges (contiguous ranges, linear scan is
  // fine at shard counts <= fleet size).
  const Shard* owner(graph::NodeId v) const {
    for (const Shard& s : shards)
      if (v >= s.row_begin && v < s.row_end) return &s;
    return nullptr;
  }
};

// Builds and uploads the row slices per `plan`. Throws simt::DeviceFault
// when an upload fails (caller degrades / propagates).
ShardedGraph make_sharded(simt::Fleet& fleet, const graph::Csr& g,
                          bool with_weights, const PlacementPlan& plan);
void release_sharded(simt::Fleet& fleet, ShardedGraph& sg);

// Result of one sharded run: the exact payload vector plus schedule times.
struct ShardedRun {
  double start_us = 0;   // barrier at which the first superstep started
  double finish_us = 0;  // barrier after the last merge
  std::uint32_t supersteps = 0;
};

// Level-synchronous multi-device BFS. `streams[i]` is the stream on
// shards[i]'s device to issue that shard's work on (one entry per shard).
// `not_before_us` is the earliest modeled start (query dispatch time).
// Fills `levels` (size num_nodes) with the exact BFS levels.
ShardedRun sharded_bfs(simt::Fleet& fleet, ShardedGraph& sg,
                       graph::NodeId source,
                       const std::vector<simt::StreamId>& streams,
                       double not_before_us, std::vector<std::uint32_t>& levels);

// Per-shard device CC + host union-find merge. Each shard runs under
// `policy` as exec::run would — a fixed variant as given, otherwise the
// adaptive runtime with the serving path's init kernel and persistent runs —
// but always on the slice's plain layout.
// Fills `component` (size num_nodes, smallest-member-id labels) and
// `num_components`.
ShardedRun sharded_cc(simt::Fleet& fleet, ShardedGraph& sg,
                      const std::vector<simt::StreamId>& streams,
                      double not_before_us, const adaptive::Policy& policy,
                      std::vector<std::uint32_t>& component,
                      std::uint32_t& num_components);

}  // namespace svc
