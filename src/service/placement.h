// Placement: where a graph lives on a fleet (svc layer).
//
// Two placements, chosen by a deterministic decision rule at add_graph time:
//
//  * replicated — the CSR fits on a device (modeled upload footprint times a
//    working-set headroom factor is within the device's free simulated
//    memory): the graph is uploaded to every replica device and the router
//    load-balances queries across replicas: each goes to the replica whose
//    issued work ends first.
//    This is the hot-read-traffic placement.
//
//  * sharded (vertex-cut) — the CSR exceeds every device's budget: rows are
//    partitioned into contiguous ranges balanced by edge count, one shard
//    per device; each shard is a row-slice CSR (global node-id space, rows
//    outside the range empty) so queries run level-synchronous BSP steps
//    per shard with host merges (service/sharded_exec.h).
//
// All decisions depend only on modeled quantities (CSR bytes, device free
// memory, fleet size), so placement — like everything else — is bit-identical
// at any --sim-threads value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "simt/cluster.h"

namespace svc {

struct PlacementPolicy {
  // Replicas per graph under the replicated placement; 0 = every device that
  // can hold it. Clamped to the fleet size.
  std::uint32_t replication = 0;
  // Permit vertex-cut sharding when no single device can hold the graph.
  // When off (or the fleet has one device) an oversized graph is placed
  // replicated anyway and the upload surfaces DeviceFault/OOM as before.
  bool allow_shard = true;
  // Working-set headroom: a device must have headroom * csr_bytes free to
  // host a copy (traversal state, symmetrized closures, batch buffers).
  double headroom = 2.0;
};

// One contiguous row range of a vertex-cut plan, owned by `device`.
struct ShardRange {
  simt::DeviceIndex device = 0;
  graph::NodeId row_begin = 0;
  graph::NodeId row_end = 0;  // exclusive
  std::uint64_t edges = 0;
};

struct PlacementPlan {
  enum class Kind { replicated, sharded };
  Kind kind = Kind::replicated;
  std::vector<simt::DeviceIndex> replicas;  // replicated: owning devices
  std::vector<ShardRange> shards;           // sharded: row ranges per device
  std::uint64_t graph_bytes = 0;            // modeled full-CSR upload footprint

  bool replicated() const { return kind == Kind::replicated; }
  // "replicated x3 (dev0 dev1 dev2)" / "sharded x4 (edges 250k/250k/...)".
  std::string describe() const;
};

// Modeled device footprint of a resident CSR upload: row offsets, column
// indices, and weights when present.
std::uint64_t device_graph_bytes(const graph::Csr& g, bool with_weights);

// Decides the placement of `g` on `fleet` under `policy`. Deterministic:
// replica sets and shard cuts depend only on modeled sizes and device order.
PlacementPlan plan_placement(const graph::Csr& g, bool with_weights,
                             const simt::Fleet& fleet,
                             const PlacementPolicy& policy);

// Row-slice CSR for a shard: same global num_nodes; rows outside
// [row_begin, row_end) are empty. Weights follow their edges.
graph::Csr shard_slice(const graph::Csr& g, graph::NodeId row_begin,
                       graph::NodeId row_end);

}  // namespace svc
