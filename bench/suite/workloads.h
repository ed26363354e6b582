// The suite's workloads: what each one is for, and the seeded inputs it
// hands to the program (a weighted graph plus an operation stream).
//
// Every input is a pure function of (workload, seed, op count); the program
// under test never sees the seed. The checks against the CPU oracles live
// here too, because they replay the same op stream the generator produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <tuple>
#include <vector>

#include "graph/csr.h"
#include "graph/delta.h"
#include "service/result_cache.h"

namespace suite {

// Which public entry point a workload drives.
enum class Front { service, api };

enum class OpKind : std::uint8_t { bfs, sssp, cc, pagerank, mutation };

struct Op {
  OpKind kind = OpKind::bfs;
  graph::NodeId source = 0;  // bfs / sssp
  graph::EdgeDelta delta;    // mutation
};

// Shares of the read ops; they sum to 1.
struct Mix {
  double bfs = 0, sssp = 0, cc = 0, pagerank = 0;
};

// Service workloads run GraphService's defaults otherwise: 4 streams per
// device, MS-BFS batching on, and a 64 MiB cache when the cache is on.
struct WorkloadSpec {
  const char* name;
  Front front;
  std::uint32_t devices;  // replicated fleet members
  std::uint32_t clients;  // K closed-loop clients: ops per wave
  std::size_t ops;        // measured ops per repetition
  bool cache;             // result cache and request collapsing
  double zipf;            // source skew exponent; 0 = uniform sources
  Mix mix;
  double mutate_fraction;  // share of ops that are 8-arc EdgeDeltas
  graph::Csr (*make_graph)();  // the workload's fixed topology
};

const std::vector<WorkloadSpec>& workloads();
// nullptr when no workload has that name.
const WorkloadSpec* find_workload(std::string_view name);

struct Inputs {
  graph::Csr csr;  // weighted (SSSP needs weights; deltas carry them too)
  std::vector<Op> ops;
};

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed,
                   std::size_t num_ops);

// Order-independent digest contribution of op `index`'s answer: FNV-1a over
// the payload values, so byte-identical answers give identical digests.
std::uint64_t payload_digest(std::size_t index, const svc::Payload& payload);

// Replays the op stream against a host mirror of the graph and checks each
// answer against the CPU oracle for the graph version it was asked on.
// Ops must be fed in submission order: mutations are FIFO barriers, so a
// read answers the mirror as it stood when the read was submitted.
class Verifier {
 public:
  explicit Verifier(const graph::Csr& csr) : mirror_(csr) {}
  // A mutation advances the mirror; a read is checked against the oracle.
  // BFS, SSSP and CC must match exactly, PageRank within rel-L1 < 2e-3.
  bool check(const Op& op, const svc::Payload& payload);

 private:
  graph::Csr mirror_;
  // Digests of the BFS, SSSP and CC oracle answers for the current mirror,
  // keyed by (kind, source): Zipf traffic asks the same question many times.
  // Only the digest is kept, so the checker's memory stays out of the
  // process's peak resident set. PageRank is compared within a tolerance, so
  // it is recomputed for each check; it is 1 % of one workload's reads.
  std::map<std::tuple<OpKind, graph::NodeId>, std::uint64_t> memo_;
};

}  // namespace suite
