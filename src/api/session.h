// adaptive::Session — the primary entry point of the public API: a
// synchronous front over svc::GraphService (service/graph_service.h) that
// keeps graphs device-resident between queries on a fleet of simulated
// devices (one by default).
//
//   adaptive::Session session;  // one default device
//   adaptive::Graph g = adaptive::Graph::from_edges(4, {{0,1},{1,2},{2,3}});
//   adaptive::GraphId id = session.register_graph(g);  // uploaded once
//   auto a = session.bfs(g, 0);         // no upload: graph is resident
//   auto b = session.sssp(id, 0);       // same resident CSR
//
//   // Multi-device: registered graphs are replicated to every device.
//   adaptive::Session fleet(simt::ClusterSpec::homogeneous(4));
//
// Registration borrows the Graph, which must outlive it. The GraphId is the
// graph's process-unique Graph::uid(), so a graph re-created at a recycled
// address never aliases a stale registration or cached answer. Changing a
// registered graph in place (set_uniform_weights) moves Graph::version():
// the next query re-uploads it and its cached answers are dropped.
// mutate_graph() patches the resident copies instead.
//
// A query on a registered graph is one submit and one drain. The service
// runs one slot per device (its default stream) without batching,
// collapsing, retries or CPU degradation: a transient fault fails the
// query, a dead device fails over to the earliest-ready healthy one, and the
// serial CPU oracle answers (Result::degraded) only once every device is
// dead. A bad source or an unweighted sssp aborts.
//
// Unregistered graphs, and mst on any graph, run call-scoped on the
// earliest-ready healthy device, uploading and releasing per call like the
// free functions in api/algorithms.h, with the same failover.
//
// The device-less overloads (adaptive::bfs(g, s), ...) wrap
// default_session(), a thread-local instance, so legacy call sites share
// one device per thread.
#pragma once

#include <cstdint>
#include <map>

#include "api/algorithms.h"
#include "api/exec.h"
#include "service/graph_service.h"
#include "simt/cluster.h"

namespace adaptive {

// Opaque registration handle returned by Session::register_graph; never 0.
using GraphId = std::uint64_t;

class Session {
 public:
  // Primary constructor: the spec describes the whole fleet. An empty
  // ClusterSpec means a single default device (the historical behavior).
  explicit Session(const simt::ClusterSpec& spec = {});
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Legacy accessors: device 0 of the fleet.
  simt::Device& device() { return fleet().device(0); }
  const simt::Device& device() const { return fleet().device(0); }
  simt::Fleet& fleet() { return service_.fleet(); }
  const simt::Fleet& fleet() const { return service_.fleet(); }
  std::uint32_t num_devices() const { return service_.num_devices(); }

  // ---- residency ----
  // Uploads the graph's CSR (with weights when present) to every healthy
  // fleet device and keeps the replicas resident until unregister_graph()
  // or destruction. Idempotent: re-registering returns the existing id.
  GraphId register_graph(const Graph& g);
  // Mutable registration: identical residency semantics, but additionally
  // entitles the session to mutate the graph in place via mutate_graph().
  // Non-const Graph lvalues resolve here automatically.
  GraphId register_graph(Graph& g);
  void unregister_graph(const Graph& g) { unregister_graph(graph_id(g)); }
  void unregister_graph(GraphId id);
  bool is_registered(const Graph& g) const { return is_registered(g.uid()); }
  bool is_registered(GraphId id) const { return ids_.count(id) > 0; }
  // The registration id of `g`, or 0 when unregistered.
  GraphId graph_id(const Graph& g) const {
    return is_registered(g) ? g.uid() : 0;
  }
  std::size_t num_registered() const { return ids_.size(); }

  // Releases the device copies of a registered graph (memory pressure) while
  // keeping the registration: the next query against it transparently
  // re-uploads. Cached results stay valid: eviction changes residency, not
  // answers.
  void evict(const Graph& g) { evict(graph_id(g)); }
  void evict(GraphId id);
  // evict() for every registered graph; frees all device graph memory.
  void evict_all();
  // True when the graph is registered and its CSR is currently uploaded on
  // at least one device.
  bool is_resident(const Graph& g) const;

  // ---- mutation (dynamic graphs) ----
  // Applies a batched edge delta to a graph registered via the mutable
  // register_graph overload, as one svc::GraphService::submit_mutation
  // (see there). Aborts on an inapplicable delta or a const registration.
  void mutate_graph(GraphId id, const graph::EdgeDelta& delta);
  void mutate_graph(Graph& g, const graph::EdgeDelta& delta);
  // The incremental CC labels of a registered graph (built lazily;
  // byte-identical to cpu::connected_components on the current CSR).
  const graph::IncrementalCc& incremental_cc(GraphId id) {
    return service_.incremental_cc(service_id(id));
  }

  // ---- result cache ----
  // Enables (capacity > 0) or disables (0) the service's result cache:
  // repeat queries on *registered* graphs are answered from host memory at
  // modeled copy cost on the service's host timeline. Off by default.
  void enable_result_cache(std::size_t capacity_bytes) {
    service_.set_cache_capacity(capacity_bytes);
  }
  const svc::ResultCache<svc::Payload>& result_cache() const {
    return service_.result_cache();
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
  static constexpr simt::DeviceIndex kNoDevice = ~simt::DeviceIndex{0};

  // The service's id for a registered graph; aborts on an unknown id.
  svc::GraphId service_id(GraphId id) const;
  const Graph& graph_for(GraphId id) const {
    return service_.graph(service_id(id));
  }
  // The single outcome of the item just submitted.
  svc::QueryOutcome drain_one();
  // The bfs/sssp/cc/pagerank path: the cpu_serial policy answers on the
  // oracle, a registered graph through the service, an unregistered one
  // call-scoped through route().
  template <typename R>
  R query(const Graph& g, const exec::Query& q);
  // Earliest-ready healthy device (default-stream ready time, ties lowest
  // ordinal); kNoDevice when the whole fleet is dead.
  simt::DeviceIndex route_device() const;
  // Runs attempt(d) on the earliest-ready healthy device, failing over while
  // devices die, and answers from oracle() -- flagged degraded -- once none
  // is left.
  template <typename R, typename Attempt, typename Oracle>
  R route(Attempt&& attempt, Oracle&& oracle);

  svc::GraphService service_;
  std::map<GraphId, svc::GraphId> ids_;  // Graph::uid() -> service id
};

}  // namespace adaptive
