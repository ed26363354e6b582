#include "api/session.h"

#include <utility>
#include <vector>

namespace adaptive {
namespace {

// A synchronous client's service: one slot per device (its default stream)
// and nothing that reorders, merges or re-runs queries. A fault reaches the
// session as the outcome's code; query() answers device_lost on the oracle.
// Every device holds a full copy, so no placement shards.
svc::ServiceOptions session_options() {
  svc::ServiceOptions opts;
  opts.concurrency = 1;
  opts.batch_bfs = false;
  opts.collapse = false;
  opts.cache_bytes = 0;  // enable_result_cache() resizes it
  opts.resilience.max_retries = 0;
  opts.resilience.degrade_to_cpu = false;
  opts.placement.allow_shard = false;
  return opts;
}

}  // namespace

Session::Session(const simt::ClusterSpec& spec)
    : service_(session_options(), spec) {}

svc::GraphId Session::service_id(GraphId id) const {
  const auto it = ids_.find(id);
  AGG_CHECK_MSG(it != ids_.end(), "unknown GraphId");
  return it->second;
}

GraphId Session::register_graph(const Graph& g) {
  if (!is_registered(g)) ids_.emplace(g.uid(), service_.borrow_graph(g));
  return g.uid();
}

GraphId Session::register_graph(Graph& g) {
  if (!is_registered(g)) ids_.emplace(g.uid(), service_.borrow_graph(g));
  return g.uid();
}

void Session::unregister_graph(GraphId id) {
  const auto it = ids_.find(id);
  if (it == ids_.end()) return;
  service_.remove_graph(it->second);
  ids_.erase(it);
}

void Session::evict(GraphId id) {
  if (is_registered(id)) service_.evict(ids_.at(id));
}

void Session::evict_all() {
  for (const auto& [id, sid] : ids_) service_.evict(sid);
}

bool Session::is_resident(const Graph& g) const {
  return is_registered(g) && service_.resident(ids_.at(g.uid()));
}

void Session::mutate_graph(Graph& g, const graph::EdgeDelta& delta) {
  AGG_CHECK_MSG(is_registered(g), "mutate_graph: graph not registered");
  mutate_graph(g.uid(), delta);
}

void Session::mutate_graph(GraphId id, const graph::EdgeDelta& delta) {
  service_.submit_mutation(service_id(id), delta);
  const svc::QueryOutcome out = drain_one();
  AGG_CHECK_MSG(out.ok(), out.error_message().c_str());
}

svc::QueryOutcome Session::drain_one() {
  std::vector<svc::QueryOutcome> outs = service_.drain();
  AGG_CHECK(outs.size() == 1);
  return std::move(outs.front());
}

simt::DeviceIndex Session::route_device() const {
  simt::DeviceIndex best = kNoDevice;
  double best_ready = 0;
  for (simt::DeviceIndex d = 0; d < fleet().size(); ++d) {
    if (!fleet().device(d).healthy()) continue;
    const double ready = fleet().device(d).stream_ready_us(0);
    if (best == kNoDevice || ready < best_ready) {
      best = d;
      best_ready = ready;
    }
  }
  return best;
}

template <typename R, typename Attempt, typename Oracle>
R Session::route(Attempt&& attempt, Oracle&& oracle) {
  for (simt::DeviceIndex d; (d = route_device()) != kNoDevice;) {
    R out = attempt(d);
    // Failover: a permanent fault killed the routed device mid-query; the
    // next healthy device re-runs it. A transient fault is the answer.
    if (out.ok() || out.code != ErrorCode::device_lost) return out;
  }
  // No healthy device remains: the serial CPU oracle answers, exactly.
  R out = oracle();
  out.degraded = true;
  return out;
}

template <typename R>
R Session::query(const Graph& g, const exec::Query& q) {
  const auto oracle = [&] { return std::get<R>(exec::run_cpu(g, q).payload); };
  if (q.policy.mode == Policy::Mode::cpu_serial) return oracle();
  const auto it = ids_.find(g.uid());
  if (it == ids_.end()) {
    return route<R>(
        [&](simt::DeviceIndex d) {
          exec::Resident call_scoped;
          try {
            return std::get<R>(exec::run(fleet().device(d), call_scoped, g, q));
          } catch (const simt::DeviceFault& f) {
            return detail::fault_result<R>(f);
          }
        },
        oracle);
  }
  service_.submit({.algo = q.algo,
                   .graph = it->second,
                   .source = q.source,
                   .damping = q.damping,
                   .policy = q.policy});
  svc::QueryOutcome out = drain_one();
  AGG_CHECK_MSG(out.code != ErrorCode::invalid_argument, out.error.c_str());
  if (out.code == ErrorCode::device_lost) {
    // The service failed over while a device was left; none is.
    R r = oracle();
    r.degraded = true;
    return r;
  }
  if (out.ok()) return std::get<R>(std::move(out.payload));
  R r;
  r.status = out.status;
  r.code = out.code;
  r.error = std::move(out.error);
  return r;
}

BfsResult Session::bfs(const Graph& g, NodeId source, const Policy& policy) {
  return query<BfsResult>(g, {.algo = svc::Algo::bfs,
                              .source = source,
                              .policy = policy,
                              .stream = policy.options.engine.stream});
}

SsspResult Session::sssp(const Graph& g, NodeId source, const Policy& policy) {
  return query<SsspResult>(g, {.algo = svc::Algo::sssp,
                               .source = source,
                               .policy = policy,
                               .stream = policy.options.engine.stream});
}

CcResult Session::cc(const Graph& g, const Policy& policy) {
  return query<CcResult>(g, {.algo = svc::Algo::cc,
                             .policy = policy,
                             .stream = policy.options.engine.stream});
}

PageRankResult Session::pagerank(const Graph& g, double damping,
                                 const Policy& policy) {
  return query<PageRankResult>(g, {.algo = svc::Algo::pagerank,
                                   .damping = damping,
                                   .policy = policy,
                                   .stream = policy.options.engine.stream});
}

MstResult Session::mst(const Graph& g, const Policy& policy) {
  if (policy.mode == Policy::Mode::cpu_serial) {
    return adaptive::mst(device(), g, policy);
  }
  return route<MstResult>(
      [&](simt::DeviceIndex d) {
        return adaptive::mst(fleet().device(d), g, policy);
      },
      [&] {
        return adaptive::mst(device(), g,
                             Policy::cpu().with_symmetrize(policy.symmetrize));
      });
}

BfsResult Session::bfs(GraphId id, NodeId source, const Policy& policy) {
  return bfs(graph_for(id), source, policy);
}

SsspResult Session::sssp(GraphId id, NodeId source, const Policy& policy) {
  return sssp(graph_for(id), source, policy);
}

CcResult Session::cc(GraphId id, const Policy& policy) {
  return cc(graph_for(id), policy);
}

PageRankResult Session::pagerank(GraphId id, double damping,
                                 const Policy& policy) {
  return pagerank(graph_for(id), damping, policy);
}

Session& Session::default_session() {
  thread_local Session session;
  return session;
}

}  // namespace adaptive
