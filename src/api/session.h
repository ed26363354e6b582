// adaptive::Session — the primary entry point of the public API: a fleet of
// simulated devices (one by default) shared across calls, with graphs kept
// device-resident between queries.
//
//   adaptive::Session session;  // one default device
//   adaptive::Graph g = adaptive::Graph::from_edges(4, {{0,1},{1,2},{2,3}});
//   adaptive::GraphId id = session.register_graph(g);  // uploaded once
//   auto a = session.bfs(g, 0);         // no upload: graph is resident
//   auto b = session.sssp(g, 0);        // same resident CSR
//
//   // Multi-device: a ClusterSpec describes the fleet; registered graphs are
//   // replicated to every device and queries balance across them by
//   // earliest-modeled-ready-time.
//   adaptive::Session fleet(simt::ClusterSpec::homogeneous(
//       4, simt::DeviceProps::fermi_c2070()));
//
// Registration is keyed by Graph::uid() — a process-unique object identity —
// so re-creating a graph at a recycled address can never alias a stale
// registration. register_graph returns an opaque GraphId accepted by the
// id-taking query overloads; the Graph object must stay alive while
// registered. Mutating a registered graph (set_uniform_weights) is detected
// via Graph::version() and triggers a transparent re-upload on the next
// query. Queries on unregistered graphs work too — they upload/release per
// call, exactly like the free functions in api/algorithms.h.
//
// Fleet routing: each query runs on the healthy device whose default stream
// is ready earliest (ties: lowest ordinal). When a device dies mid-query
// (permanent fault), the query fails over to the next healthy device; the
// serial CPU oracle answers — with Result::degraded set — only when no
// healthy device remains. Cache hits and CPU work are charged to the modeled
// host/device-0 timelines, so single-device sessions behave exactly as
// before.
//
// Under memory pressure, evict() / evict_all() release the device copies
// while keeping registrations — the next query re-uploads transparently.
// enable_result_cache(bytes) additionally serves repeat queries on
// registered graphs from a byte-bounded LRU of completed exact results
// (service/result_cache.h) at modeled host-copy cost; Graph::version() bumps
// invalidate the graph's entries.
//
// The device-less convenience overloads (adaptive::bfs(g, s) etc.) are thin
// wrappers over Session::default_session(), a thread-local instance — so
// legacy call sites now share one device per thread instead of constructing
// a fresh one per call.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "api/algorithms.h"
#include "api/exec.h"
#include "graph/incremental_cc.h"
#include "service/result_cache.h"
#include "simt/cluster.h"
#include "simt/device.h"

namespace adaptive {

// Opaque registration handle returned by Session::register_graph; stable for
// the lifetime of the registration, never reused within a session.
using GraphId = std::uint64_t;

class Session {
 public:
  // Primary constructor: the spec describes the whole fleet. An empty
  // ClusterSpec means a single default device (the historical behavior).
  explicit Session(const simt::ClusterSpec& spec = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Legacy accessors: device 0 of the fleet.
  simt::Device& device() { return fleet_.device(0); }
  const simt::Device& device() const { return fleet_.device(0); }
  simt::Fleet& fleet() { return fleet_; }
  std::uint32_t num_devices() const { return fleet_.size(); }

  // ---- residency ----
  // Uploads the graph's CSR (with weights when present) to every fleet
  // device and keeps the replicas resident until unregister_graph() or
  // destruction. Idempotent: re-registering an already-registered graph
  // refreshes it and returns its existing id.
  GraphId register_graph(const Graph& g);
  // Mutable registration: identical residency semantics, but additionally
  // entitles the session to mutate the graph in place via mutate_graph().
  // Non-const Graph lvalues resolve here automatically.
  GraphId register_graph(Graph& g);
  void unregister_graph(const Graph& g);
  void unregister_graph(GraphId id);
  bool is_registered(const Graph& g) const;
  bool is_registered(GraphId id) const { return regs_.count(id) > 0; }
  // The registration id of `g`, or 0 when unregistered.
  GraphId graph_id(const Graph& g) const;
  std::size_t num_registered() const { return regs_.size(); }

  // Releases the device copies of a registered graph (memory pressure) while
  // keeping the registration: the next query against it transparently
  // re-uploads. A lazily pinned symmetrized closure (cc) is dropped outright
  // — it is re-derived on demand. Cached results stay valid: eviction
  // changes residency, not answers.
  void evict(const Graph& g);
  void evict(GraphId id);
  // evict() for every registered graph; frees all device graph memory.
  void evict_all();
  // True when the graph is registered and its CSR is currently uploaded on
  // at least one device.
  bool is_resident(const Graph& g) const;

  // ---- mutation (ISSUE 9: dynamic graphs) ----
  // Applies a batched edge delta to a graph registered via the mutable
  // register_graph overload: bumps Graph::version(), incrementally patches
  // every resident device replica (dirty-region transfers; compacting
  // rebuild when the edge buffer capacity is exceeded) instead of the
  // re-upload a version mismatch would otherwise trigger, drops the stale
  // symmetrized closure per-structure, advances the incremental CC state,
  // and delta-invalidates the result cache — entries whose source component
  // is untouched by the delta survive under the new version. Aborts on an
  // inapplicable delta or a const registration.
  void mutate_graph(GraphId id, const graph::EdgeDelta& delta);
  void mutate_graph(Graph& g, const graph::EdgeDelta& delta);
  // The incremental CC labels of a registered graph (initialized lazily on
  // first use; byte-identical to cpu::connected_components on the current
  // CSR). Exposed for tests and delta-aware consumers.
  const graph::IncrementalCc& incremental_cc(GraphId id);

  // ---- result cache ----
  // Enables (capacity > 0) or disables (0) the session's query-result cache:
  // repeat queries on *registered* graphs with the same (graph id + version,
  // algo, source/params, policy) are answered from host memory at modeled
  // copy cost (svc::CacheCostModel) without touching any device. Off by
  // default.
  void enable_result_cache(std::size_t capacity_bytes);
  const svc::ResultCache<svc::Payload>& result_cache() const {
    return rcache_;
  }

  // ---- queries ----
  // Same semantics as the free functions (api/algorithms.h); registered
  // graphs skip the per-query upload, so metrics cover the traversal only.
  // On a fleet, the earliest-ready healthy device serves the query.
  BfsResult bfs(const Graph& g, NodeId source, const Policy& policy = {});
  SsspResult sssp(const Graph& g, NodeId source, const Policy& policy = {});
  // cc on a registered directed graph lazily uploads (and keeps) the
  // symmetrized CSR as well, so repeat queries stay resident.
  CcResult cc(const Graph& g, const Policy& policy = {});
  // MST contracts the graph in place on the device, so it has no resident
  // form; registration does not change its cost.
  MstResult mst(const Graph& g, const Policy& policy = {});
  PageRankResult pagerank(const Graph& g, double damping = 0.85,
                          const Policy& policy = {});

  // Id-taking overloads for callers that hold the opaque handle instead of
  // the Graph. The registration's Graph object must still be alive.
  BfsResult bfs(GraphId id, NodeId source, const Policy& policy = {});
  SsspResult sssp(GraphId id, NodeId source, const Policy& policy = {});
  CcResult cc(GraphId id, const Policy& policy = {});
  PageRankResult pagerank(GraphId id, double damping = 0.85,
                          const Policy& policy = {});

  // The calling thread's default session (constructed on first use).
  static Session& default_session();

 private:
  // One device's copy of a registered graph and the Graph::version() it was
  // made from. Not uploaded after evict(), after a faulted patch, or on a
  // device that was dead at registration: the next query re-uploads.
  struct Pin {
    exec::Resident res;
    std::uint64_t version = 0;
  };
  struct Registration {
    const Graph* g = nullptr;
    // Non-null only for graphs registered via the mutable overload; gates
    // mutate_graph.
    Graph* mutable_g = nullptr;
    std::uint64_t uid = 0;
    std::vector<Pin> pins;  // one per fleet device, ordinal-indexed
    // Weak-connectivity labels maintained across deltas; constructed on the
    // first mutate_graph / incremental_cc call.
    std::optional<graph::IncrementalCc> inc_cc;
  };
  static constexpr simt::DeviceIndex kNoDevice = ~simt::DeviceIndex{0};

  Registration* find_reg(const Graph& g);
  const Registration* find_reg(const Graph& g) const;
  const Graph& graph_for(GraphId id) const;
  // Earliest-ready healthy device (default-stream ready time, ties lowest
  // ordinal); kNoDevice when the whole fleet is dead.
  simt::DeviceIndex route_device() const;
  void release_pins(Registration& reg);
  // Device d's copy of `reg`, re-uploaded first when evicted or stale (the
  // graph mutated since); throws simt::DeviceFault on upload failure.
  exec::Resident& ensure_fresh(Registration& reg, simt::DeviceIndex d);

  // The bfs/sssp/cc/pagerank path: the cpu_serial policy answers on the
  // oracle; otherwise a cached answer, else route() over exec::run against
  // the resident copy (call-scoped for unregistered graphs), caching an
  // exact answer.
  template <typename R>
  R query(const Graph& g, const exec::Query& q);
  // Runs attempt(d) on the earliest-ready healthy device, failing over while
  // devices die, and answers from oracle() -- flagged degraded -- once none
  // is left.
  template <typename R, typename Attempt, typename Oracle>
  R route(Attempt&& attempt, Oracle&& oracle);

  // ---- result cache plumbing ----
  // GraphId for registered graphs, uid otherwise — never an address, so a
  // recycled allocation cannot alias a cached answer.
  std::uint64_t rcache_graph_key(const Graph& g) const;
  // Invalidates stale entries when g's version moved since last seen.
  void rcache_refresh_version(const Graph& g);
  // Cached payload for q (charging the modeled copy cost to device 0's
  // current stream) or nullptr; only registered graphs are served.
  const svc::Payload* rcache_lookup(const Graph& g, const exec::Query& q);
  // Stores a completed exact payload (no-op when the cache is off or the
  // graph is unregistered).
  void rcache_store(const Graph& g, const exec::Query& q,
                    svc::Payload payload);

  simt::Fleet fleet_;
  std::map<GraphId, Registration> regs_;
  std::map<std::uint64_t, GraphId> by_uid_;
  GraphId next_graph_id_ = 1;
  svc::ResultCache<svc::Payload> rcache_{0};  // disabled until enabled
  svc::CacheCostModel rcache_cost_{};
  // Last Graph::version() seen per registered graph, for eager invalidation.
  std::map<std::uint64_t, std::uint64_t> rcache_versions_;  // uid -> version
};

}  // namespace adaptive
