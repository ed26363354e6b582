// GraphService — the concurrent multi-query serving layer over a fleet.
//
// The service owns a simt::Fleet of N simulated devices (one by default; a
// ClusterSpec configures more, possibly heterogeneous), places registered
// graphs on it (service/placement.h), and executes submitted queries on
// per-device pools of simt streams so their kernels and transfers interleave
// on each device's modeled clock. adaptive::Session (api/session.h) is a
// synchronous front over one: a submit and a drain per query.
//
// Graphs are owned (add_graph) or borrowed (borrow_graph: the caller keeps
// the Graph alive). A borrowed graph the caller changes in place — its
// version() moves outside submit_mutation — loses its device copies, cached
// answers and incremental CC labels when the next item for it is drained;
// evict() drops the device copies alone. Either way the next query routed
// to a device re-uploads the graph there, inside its faultable attempt.
//
// Placement & routing: a graph that fits a device is uploaded to every
// replica device (full replication — the hot-read-traffic placement); a
// deterministic router then balances queries across replicas: each goes to
// the healthy replica device whose issued work ends first (its modeled
// makespan), on that device's earliest-ready stream (ties: lowest device
// ordinal, then lowest stream id). A graph exceeding every device's memory
// budget is vertex-cut sharded: contiguous row ranges balanced by edge
// count, one shard per device, queries running level-synchronous BSP
// supersteps with host merges (service/sharded_exec.h). BFS and CC run
// sharded on-device with bit-identical payloads; SSSP/PageRank on sharded
// graphs are answered by the exact CPU oracle (degraded outcome), never a
// wrong answer.
//
// Scheduling: FIFO with a configurable per-device concurrency limit
// (= stream-pool size). Each dispatch picks a (device, stream) pair among
// the graph's healthy replicas as above, so up to N * concurrency queries
// are in flight on the modeled timelines at once. A one-slot pool
// (concurrency 1) is the device's default stream, so a serial service
// orders its queries behind the graph upload and any other work issued on
// the device, exactly like a caller running them itself. Admission control
// rejects submissions when the pending queue is full; per-query deadlines
// time out queries before dispatch (the chosen slot cannot start in time)
// or after execution.
//
// Batching: a BFS or SSSP at the head of the queue on a *replicated* graph
// fuses every pending query of the same algorithm, graph and policy
// signature — up to max_batch, at most 32 — into one fused multi-source
// traversal on the routed device (gpu_graph/multi_source_engine.h). An SSSP
// fuses only when its policy runs on the unordered push engine
// (exec::batchable); ordered, pulling and fixed _REL/_BIN SSSP run alone.
// Members are gathered in FIFO order from a window that ends just before the
// graph's next pending mutation, the window request collapsing uses: every
// member answers against the same graph version, and reads of one version
// commute. The batch dispatches at its first member's FIFO position; the
// queries it passes keep their order behind it.
//
// Result cache & request collapsing: unchanged from the single-device
// service (service/result_cache.h) — completed exact payloads enter a
// byte-bounded LRU keyed by (graph id + upload generation + graph version,
// algo, source/params, policy signature); identical pending queries collapse
// onto one execution. Cache hits and collapses are served on the modeled
// host timeline, never before the modeled time the answer they copy was
// ready.
//
// Resilience & failover: an installed FaultPlan arms one device (or all).
// Transient faults retry on the same slot with modeled exponential backoff.
// When a *permanent* fault kills a device, queries against replicated graphs
// fail over to a healthy replica, routed as above (svc.failover counter);
// CPU degradation — the single-device behavior — remains only when no
// healthy replica holds the graph (and for sharded graphs, which have no
// replicas). Fault messages carry the device label ("dev2: device fault:
// ..."), so fleet errors are attributable.
//
// Determinism: execution is entirely host-driven on modeled time, placement
// and routing depend only on modeled quantities, so outcomes, svc.* counters
// and traces are byte-identical at any --sim-threads value. With two or more
// simulator threads a drain records the units it is about to dispatch on the
// worker pool and commits them in FIFO order (DESIGN.md "Query-parallel
// drains"); a unit without a valid recording runs inline, as every fused
// SSSP batch does.
//
// Observability: per-device Chrome-trace process groups (trace/chrome_trace.h)
// from the device ordinals stamped on every event; per-stream lanes within
// each group; svc.* counters as before plus svc.route.dev<K> (queries routed
// to device K), svc.failover, svc.sharded.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/algorithms.h"
#include "api/exec.h"
#include "api/graph_api.h"
#include "graph/incremental_cc.h"
#include "service/placement.h"
#include "service/resilience.h"
#include "service/result_cache.h"
#include "service/sharded_exec.h"
#include "simt/cluster.h"
#include "simt/device.h"
#include "simt/fault.h"

namespace svc {

using GraphId = std::uint32_t;
using QueryId = std::uint64_t;

struct QueryRequest {
  Algo algo = Algo::bfs;
  GraphId graph = 0;
  graph::NodeId source = 0;   // bfs / sssp
  double damping = 0.85;      // pagerank
  // adaptive (default) or fixed_variant; cpu_serial queries fail (their
  // timing is host wall-clock, which would break service determinism).
  adaptive::Policy policy{};
  // Modeled-time budget from submission; 0 = none. A query whose stream
  // cannot start it in time is timed out without running; one that finishes
  // past the deadline is timed out after the fact (payload dropped).
  double deadline_us = 0;
};

struct QueryOutcome {
  QueryId id = 0;
  Algo algo = Algo::bfs;
  GraphId graph = 0;
  adaptive::Status status = adaptive::Status::ok;
  std::string error;             // set when status == error
  adaptive::ErrorCode code = adaptive::ErrorCode::none;  // typed cause
  std::uint32_t retries = 0;     // on-device re-executions after faults
  bool degraded = false;         // answered by the serial CPU oracle
  bool mutation = false;         // a submit_mutation item, not a query
  bool rebuilt = false;          // mutation fell back to a compacting rebuild
  bool cached = false;           // answered from the result cache
  bool collapsed = false;        // attached to an identical in-flight query
  QueryId collapsed_into = 0;    // the leader execution (when collapsed)
  std::uint32_t device = 0;      // fleet ordinal it ran on (replicated path)
  bool failover = false;         // rerouted around a dead replica device
  bool sharded = false;          // answered by the sharded BSP executor
  // Stream it ran on. 0 is the default stream a one-slot service dispatches
  // on, and also what queries that never reached a device report (cached,
  // collapsed, degraded), so read those flags before the stream.
  simt::StreamId stream = 0;
  double submit_us = 0;          // modeled time of submission
  double start_us = 0;           // stream time when dispatched
  double finish_us = 0;          // stream time when complete
  // > 1: answered by a fused multi-source BFS or SSSP traversal of this
  // many distinct sources
  std::uint32_t batch_size = 1;
  Payload payload;

  bool ok() const { return status == adaptive::Status::ok; }
  const adaptive::BfsResult& bfs() const {
    return std::get<adaptive::BfsResult>(payload);
  }
  const adaptive::SsspResult& sssp() const {
    return std::get<adaptive::SsspResult>(payload);
  }
  const adaptive::CcResult& cc() const {
    return std::get<adaptive::CcResult>(payload);
  }
  const adaptive::PageRankResult& pagerank() const {
    return std::get<adaptive::PageRankResult>(payload);
  }
  // "device_oom: dev2: device fault: ..." — see adaptive::Result.
  std::string error_message() const {
    if (status == adaptive::Status::ok) return "";
    std::string msg = adaptive::error_code_name(code);
    msg += ": ";
    msg += error.empty() ? adaptive::error_code_message(code) : error;
    return msg;
  }
};

struct ServiceOptions {
  // In-flight slots per device: created simt streams, or the default
  // stream alone when 1 (see Scheduling above).
  std::uint32_t concurrency = 4;
  std::size_t queue_capacity = 64;  // pending submissions before rejection
  // Fuse a head BFS or SSSP with the batchable queries of its algorithm
  // queued behind it, up to the graph's next pending mutation (see Batching
  // above).
  bool batch_bfs = true;
  std::uint32_t max_batch = 32;     // <= gg::kMaxBatchedSources
  // Result-cache budget in bytes; 0 disables caching entirely. Hits are
  // served from host memory at CacheCostModel::hit_us() — no device work.
  std::size_t cache_bytes = 64ull << 20;
  // Collapse identical pending queries onto one execution (singleflight).
  bool collapse = true;
  CacheCostModel cache_cost{};
  // Retry / degradation behavior for injected or genuine device faults
  // (service/resilience.h).
  ResiliencePolicy resilience{};
  // Replication count and shard thresholds (service/placement.h).
  PlacementPolicy placement{};
};

class GraphService {
 public:
  // Primary constructor: one spec describes the whole fleet. An empty
  // ClusterSpec means a single default device (the historical behavior).
  explicit GraphService(ServiceOptions opts = {},
                        const simt::ClusterSpec& cluster = {});
  ~GraphService();
  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  // Takes ownership and places the graph on the fleet: replicated uploads
  // when it fits a device, vertex-cut shards otherwise. All queries against
  // the returned id run on the resident copies (no per-query upload). A dead
  // device takes no copy; routing skips it.
  GraphId add_graph(adaptive::Graph g);
  // Places a graph the caller owns and keeps alive until remove_graph() or
  // the service's end. Only a mutable borrow accepts submit_mutation.
  GraphId borrow_graph(const adaptive::Graph& g);
  GraphId borrow_graph(adaptive::Graph& g);
  GraphId borrow_graph(adaptive::Graph&&) = delete;
  // Replaces the graph under `id` with an owned one: placement is
  // re-planned, device copies are re-uploaded, and every cached result and
  // the incremental CC labels for the id are retired.
  void update_graph(GraphId id, adaptive::Graph g);
  // Releases the graph's device copies and cached results. The id is never
  // reused; no pending item may target it.
  void remove_graph(GraphId id);
  // Releases the replicated device copies but keeps the graph and its cached
  // results: the next query routed to a device re-uploads there. A sharded
  // placement stays resident.
  void evict(GraphId id);
  // True when some device holds a copy of the graph.
  bool resident(GraphId id) const;
  const adaptive::Graph& graph(GraphId id) const;
  // The placement the service chose for `id` (tests, introspection).
  const PlacementPlan& placement(GraphId id) const;

  simt::Fleet& fleet() { return fleet_; }
  const simt::Fleet& fleet() const { return fleet_; }
  std::uint32_t num_devices() const { return fleet_.size(); }
  // Legacy accessor: device 0.
  simt::Device& device() { return fleet_.device(0); }
  const ServiceOptions& options() const { return opts_; }
  const ResultCache<Payload>& result_cache() const { return cache_; }
  // Resizes the result-cache budget; 0 empties and disables the cache.
  void set_cache_capacity(std::size_t bytes) {
    opts_.cache_bytes = bytes;
    cache_.set_capacity(bytes);
  }

  // Arms deterministic fault injection on one device (default: device 0,
  // the single-device behavior). Install after add_graph() so the resident
  // uploads are not subject to the plan.
  void set_fault_plan(const simt::FaultPlan& plan,
                      simt::DeviceIndex device = 0) {
    fleet_.device(device).set_fault_plan(plan);
  }
  void set_fault_plan_all(const simt::FaultPlan& plan) {
    for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d)
      fleet_.device(d).set_fault_plan(plan);
  }
  // False once a permanent fault killed the device. With no argument this is
  // device 0 (single-device compatibility).
  bool device_healthy(simt::DeviceIndex device = 0) const {
    return fleet_.device(device).healthy();
  }

  // Admission: enqueues and returns the query id, or std::nullopt when the
  // pending queue is full (a rejected outcome is still recorded for drain()).
  std::optional<QueryId> submit(QueryRequest req);

  // Enqueues a batched graph mutation (ISSUE 9: dynamic graphs). Mutations
  // share the FIFO queue with queries, so ordering on the modeled timeline
  // is exact: queries admitted before the mutation answer against the old
  // version, queries after it against the new one. Execution validates the
  // delta (an inapplicable one yields an invalid_argument outcome, the
  // graph untouched), applies it to the Graph, incrementally patches every
  // healthy resident replica behind a per-device stream barrier (sharded
  // placements re-place wholesale), advances the incremental CC labels, and
  // delta-invalidates the cache — entries whose source component the delta
  // does not touch survive re-keyed to the new version
  // (svc.cache.delta_keep). Admission control applies as for submit().
  // Aborts on a const borrow.
  std::optional<QueryId> submit_mutation(GraphId graph,
                                         graph::EdgeDelta delta);

  // The incremental CC labels of `id`'s current graph (built lazily;
  // byte-identical to a from-scratch cpu::connected_components). Exposed
  // for tests and delta-aware consumers.
  const graph::IncrementalCc& incremental_cc(GraphId id);

  // Runs every pending query to completion (FIFO dispatch, batching, cache
  // lookup, collapsing, routing, stream placement) and returns all outcomes
  // produced since the last drain — including immediate rejections — in
  // dispatch/record order.
  std::vector<QueryOutcome> drain();

  std::size_t pending() const { return queue_.size(); }
  // How drains used units recorded ahead on the simulator's worker pool
  // (DESIGN.md "Query-parallel drains"); tests and introspection. Every unit
  // not committed ran inline, exactly as without the pool.
  struct RecordingStats {
    std::uint64_t recorded = 0;   // units handed to pool workers
    std::uint64_t committed = 0;  // committed in FIFO order
    std::uint64_t unstarted = 0;  // taken back before a worker began
    std::uint64_t stale = 0;      // graph, sources or residency had moved
    std::uint64_t refused = 0;    // pinned, ran out of memory or did not fit
    std::uint64_t unused = 0;     // never dispatched (cache hit, collapse, ...)
  };
  const RecordingStats& recording_stats() const { return recording_stats_; }

  // End of all issued work: the modeled makespan of the schedule so far —
  // every device's engines plus the modeled host timeline (degraded queries,
  // cache hits, BSP merges).
  double makespan_us() const {
    return std::max(fleet_.makespan_us(), host_ready_us_);
  }

 private:
  struct PendingQuery {
    QueryId id = 0;
    QueryRequest req;
    double submit_us = 0;
    // Set for submit_mutation items: req.graph is the target, req.algo is
    // meaningless. Mutations act as version barriers in the queue — they
    // never batch or collapse, and they end the window of queries ahead of
    // them for the same graph: queries behind one neither collapse onto nor
    // batch with those queries. A mutation of another graph ends nothing.
    std::optional<graph::EdgeDelta> mutation;
  };
  // One device-resident copy of a replicated graph.
  struct Replica {
    simt::DeviceIndex device = 0;
    exec::Resident res;
    // The residency the last unit run inline here left unchanged, if it
    // did: then units are recorded against this copy (look_ahead). A copy
    // whose structures are still being pinned — after an upload or a patch
    // — runs its units inline until one pins nothing.
    std::optional<std::uint32_t> steady;
  };
  struct GraphEntry {
    std::optional<adaptive::Graph> owned;  // add_graph / update_graph
    const adaptive::Graph* g = nullptr;    // owned or borrowed
    adaptive::Graph* mut = nullptr;        // null for a const borrow
    // g->version() as of the last drained item: a move since means the
    // caller changed a borrowed graph (see refresh()).
    std::uint64_t version = 0;
    // Upload generation: bumped by update_graph() and folded into the cache
    // key version so replaced graphs never serve stale hits.
    std::uint64_t gen = 0;
    PlacementPlan plan;
    std::vector<Replica> replicas;       // replicated placement
    std::optional<ShardedGraph> sharded; // sharded placement
    // Weak-connectivity labels maintained across deltas (lazily built).
    std::optional<graph::IncrementalCc> inc_cc;
  };
  // A routed dispatch slot: the chosen replica device and stream.
  struct Route {
    bool ok = false;       // false: no healthy replica (degrade / fail)
    bool failover = false; // at least one dead replica was routed around
    simt::DeviceIndex device = 0;
    simt::StreamId stream = 0;
    double ready_us = 0;
  };

  // The live entry under `id`; aborts on an unknown or removed id.
  GraphEntry& at(GraphId id) const;
  GraphId insert(std::unique_ptr<GraphEntry> entry);
  // Admits q (stamping its id and submit time) or records its rejection.
  std::optional<QueryId> enqueue(PendingQuery q);
  void place_graph(GraphEntry& entry);
  void release_graph(GraphEntry& entry);
  // Retires what a borrowed graph's outside change made stale: device
  // copies (replicas re-upload on their next attempt, shards are re-placed
  // now), cached results and incremental CC labels.
  void refresh(GraphId id);
  // Drops every cached result of `id`, returning their bytes to the budget.
  void drop_cached(GraphId id);
  // Re-uploads an evicted replica on the query's stream. Called inside the
  // attempt, before exec::run's allocator mark, so a fault here is handled
  // like a kernel fault.
  void ensure_uploaded(Replica& rep, const adaptive::Graph& g,
                       simt::StreamId stream);
  // The earliest-ready stream of the entry's healthy replica device whose
  // issued work ends first; ties: lowest device ordinal, then lowest stream
  // id.
  Route route_query(const GraphEntry& entry) const;
  // Earliest-ready stream of `device`'s pool, lowest id wins.
  simt::StreamId pick_stream(simt::DeviceIndex device) const;
  Replica* replica_on(GraphEntry& entry, simt::DeviceIndex device);

  // The queue positions of the unit the loop dispatches when queue_[head]
  // reaches the front, head first: for a query that can batch, every query
  // of its algorithm, graph and policy signature in FIFO order, up to
  // max_batch, before the first pending mutation of its graph; otherwise
  // head alone. Positions marked in `gone` (the look-ahead's taken-out
  // queries) are passed over. drain() and look_ahead() both group with this.
  std::vector<std::size_t> batch_members(std::size_t head,
                                         const std::vector<char>& gone) const;
  // Collapses identical pending queries onto q's execution, then runs q.
  void execute_query(PendingQuery q);
  // Applies a queued mutation: host delta apply + incremental CC update on
  // the modeled host timeline, per-replica device patch behind a stream
  // barrier, delta-aware cache invalidation.
  void execute_mutation(PendingQuery q);
  void execute_single(PendingQuery q);
  void execute_batch(std::vector<PendingQuery> batch);
  // Sharded BSP execution (BFS/CC on-device, SSSP/PageRank via the oracle).
  void execute_sharded(PendingQuery q, GraphEntry& entry, QueryOutcome out);
  QueryOutcome make_outcome(const PendingQuery& q) const;
  void finish_outcome(QueryOutcome& out, simt::DeviceIndex device,
                      simt::StreamId stream, double start);
  // Times out a query that finished past its deadline (dropping the
  // payload); counts it completed otherwise.
  void check_deadline(const PendingQuery& q, QueryOutcome& out);
  // Answers q on the serial oracle on the modeled single-core host
  // timeline, counts it under svc.degraded and `why`, and caches it.
  void degrade(const PendingQuery& q, const adaptive::Graph& g,
               QueryOutcome& out, const char* why);
  // Modeled upper bound of the serial execution time (full-scan counts).
  double estimate_cpu_us(Algo algo, const adaptive::Graph& g) const;

  // ---- query-parallel drains (DESIGN.md "Query-parallel drains") ----
  // One unit recorded ahead of its turn on a pool worker.
  struct Recorded;
  // Whether this drain records ahead: at least two simulator threads, no
  // trace sink or counter registry, no armed fault plan.
  bool can_look_ahead() const;
  // Predicts the units the loop dispatches next, as drain() would group the
  // queue, and records those not yet recorded on the pool: at most
  // 2 x threads in flight, none past a mutation of the same graph or a unit
  // bound to pin into it, none for a sharded graph, a stale borrowed graph
  // or a predicted cache hit. SSSP batches are not recorded, nor are their
  // members one by one: they run inline.
  void look_ahead();
  // Records q; true when q is bound to pin (exec::prepare_recording), so
  // the units behind it must wait for the pin.
  bool record_ahead(const PendingQuery& q);
  void record_batch_ahead(const std::vector<const PendingQuery*>& members);
  // The replica a unit of `entry` is recorded against: the first one on a
  // healthy, recordable device that holds the graph; null when none does or
  // the graph cannot be recorded (sharded, or a borrowed graph changed).
  const Replica* record_replica(const GraphEntry& entry) const;
  // The finished recording of the unit the loop dispatches now (a query,
  // or a batch led by `id` over `sources`) on `rep`, or null — no recording
  // was made, none had started (taken back), or its key or the replica's
  // residency no longer match (`resident`: the replica held the graph
  // before this attempt). Never waits for a recording that cannot be used.
  exec::Recording* take_recorded(QueryId id, bool batch,
                                 const std::vector<graph::NodeId>& sources,
                                 const GraphEntry& entry, const Replica& rep,
                                 bool resident);
  // Takes back the queued recordings reading `graph`, or all of them, then
  // waits for the running ones, and drops them: before a mutation and at
  // the end of a drain.
  void settle(std::optional<GraphId> graph);
  // Runs a unit inline on `rep` and notes whether it pinned anything.
  template <typename Unit>
  auto run_inline(Replica& rep, Unit&& unit);

  // ---- result cache / collapsing ----
  // True when the query's answer is deterministic and keyable (servable
  // algo/policy); only such queries consult or populate the cache and
  // participate in collapsing.
  bool cache_servable(const QueryRequest& req) const;
  CacheKey key_for(const QueryRequest& req) const;
  // Serves `q` a host-memory copy of `payload` (a cache hit, or the collapse
  // leader's result; leader == 0 means cache hit), starting no earlier than
  // `not_before`, the modeled time the payload was ready. Charges the
  // modeled copy cost to the host timeline and applies q's deadline.
  void serve_copy(const PendingQuery& q, const Payload& payload,
                  std::size_t bytes, QueryOutcome& out, QueryId leader,
                  double not_before);
  // Stores a completed exact payload under q's key, ready at modeled time
  // `ready_us` (no-op for faulted / empty payloads — those must never poison
  // the cache).
  void store_result(const PendingQuery& q, const Payload& payload,
                    double ready_us);
  void publish_service_event(const char* action, const QueryRequest& req,
                             QueryId query, QueryId leader, std::uint64_t bytes,
                             double ts_us) const;
  // An event about the whole graph (no algo or source).
  void publish_graph_event(const char* action, GraphId id, QueryId query,
                           std::uint64_t bytes, double ts_us) const;

  ServiceOptions opts_;
  simt::Fleet fleet_;
  // streams_[d] = device d's stream pool: `concurrency` created streams, or
  // the default stream alone for one slot.
  std::vector<std::vector<simt::StreamId>> streams_;
  std::vector<std::unique_ptr<GraphEntry>> graphs_;
  std::deque<PendingQuery> queue_;
  std::vector<QueryOutcome> done_;
  ResultCache<Payload> cache_;
  QueryId next_id_ = 1;
  std::uint64_t next_gen_ = 1;
  // Ready time of the modeled serial CPU used for degraded queries and
  // cache/collapse copies: one core, so host-side serving serializes here.
  double host_ready_us_ = 0;
  // Recordings of the current drain, in predicted dispatch order.
  bool looking_ahead_ = false;
  std::vector<std::unique_ptr<Recorded>> recorded_;
  RecordingStats recording_stats_;
};

}  // namespace svc
