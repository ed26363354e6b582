#include "api/session.h"

#include <algorithm>

#include "trace/counters.h"
#include "trace/trace_sink.h"

namespace adaptive {
namespace {

void bump(std::string_view name, double d = 1) {
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) reg.counter(name).add(d);
}

void gauge_max(const char* name, double v) {
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) reg.gauge(name).set_max(v);
}

}  // namespace

Session::Session(const simt::ClusterSpec& spec) : fleet_(spec) {}

Session::~Session() {
  for (auto& [id, reg] : regs_) release_pins(reg);
}

Session::Registration* Session::find_reg(const Graph& g) {
  auto it = by_uid_.find(g.uid());
  if (it == by_uid_.end()) return nullptr;
  return &regs_.at(it->second);
}

const Session::Registration* Session::find_reg(const Graph& g) const {
  auto it = by_uid_.find(g.uid());
  if (it == by_uid_.end()) return nullptr;
  return &regs_.at(it->second);
}

const Graph& Session::graph_for(GraphId id) const {
  auto it = regs_.find(id);
  AGG_CHECK_MSG(it != regs_.end(), "unknown GraphId");
  return *it->second.g;
}

simt::DeviceIndex Session::route_device() const {
  simt::DeviceIndex best = kNoDevice;
  double best_ready = 0;
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    if (!fleet_.device(d).healthy()) continue;
    const double ready = fleet_.device(d).stream_ready_us(0);
    if (best == kNoDevice || ready < best_ready) {
      best = d;
      best_ready = ready;
    }
  }
  return best;
}

void Session::release_pins(Registration& reg) {
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    reg.pins[d].res.release(fleet_.device(d));
  }
}

exec::Resident& Session::ensure_fresh(Registration& reg, simt::DeviceIndex d) {
  Pin& pin = reg.pins[d];
  const Graph& g = *reg.g;
  if (!pin.res.uploaded() || pin.version != g.version()) {
    // Evicted pin or graph mutated since the upload: refresh transparently,
    // charged to the current query.
    pin.res.upload(fleet_.device(d), g);
    pin.version = g.version();
  }
  return pin.res;
}

GraphId Session::register_graph(const Graph& g) {
  if (Registration* reg = find_reg(g)) {
    // Idempotent: refresh every device's replica and return the existing id.
    for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
      if (fleet_.device(d).healthy()) ensure_fresh(*reg, d);
    }
    return by_uid_.at(g.uid());
  }
  Registration reg;
  reg.g = &g;
  reg.uid = g.uid();
  reg.pins.resize(fleet_.size());
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    // A dead device takes no replica; queries route around it.
    if (fleet_.device(d).healthy()) ensure_fresh(reg, d);
  }
  const GraphId id = next_graph_id_++;
  by_uid_[g.uid()] = id;
  regs_.emplace(id, std::move(reg));
  return id;
}

GraphId Session::register_graph(Graph& g) {
  const GraphId id = register_graph(static_cast<const Graph&>(g));
  regs_.at(id).mutable_g = &g;
  return id;
}

void Session::mutate_graph(Graph& g, const graph::EdgeDelta& delta) {
  auto it = by_uid_.find(g.uid());
  AGG_CHECK_MSG(it != by_uid_.end(), "mutate_graph: graph not registered");
  mutate_graph(it->second, delta);
}

void Session::mutate_graph(GraphId id, const graph::EdgeDelta& delta) {
  auto rit = regs_.find(id);
  AGG_CHECK_MSG(rit != regs_.end(), "unknown GraphId");
  Registration& reg = rit->second;
  AGG_CHECK_MSG(reg.mutable_g != nullptr,
                "mutate_graph: graph was registered const; use the mutable "
                "register_graph overload");
  Graph& g = *reg.mutable_g;
  const std::string err = graph::delta_error(g.csr(), delta);
  AGG_CHECK_MSG(err.empty(), err.c_str());
  if (delta.empty()) return;

  // Old-component view (pre-delta) drives the delta-aware invalidation.
  if (!reg.inc_cc) reg.inc_cc = graph::IncrementalCc(g.csr());
  const std::vector<std::uint32_t> affected =
      svc::affected_components(reg.inc_cc->labels(), delta);
  std::vector<std::uint32_t> old_labels;
  if (rcache_.enabled()) old_labels = reg.inc_cc->labels();

  g.apply_delta(delta);
  reg.inc_cc->apply(g.csr(), delta);

  bump("svc.mutate");
  bump("svc.mutate.edges", static_cast<double>(delta.num_ops()));

  // Incrementally patch every healthy resident replica; the version written
  // into the pin stops ensure_fresh from re-uploading wholesale.
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    Pin& pin = reg.pins[d];
    if (!pin.res.uploaded() || !fleet_.device(d).healthy()) continue;
    simt::Device& dev = fleet_.device(d);
    try {
      const auto ps = pin.res.patch(dev, g);
      bump(ps.rebuilt ? "svc.mutate.rebuild" : "svc.mutate.patch");
      bump("svc.mutate.bytes", static_cast<double>(ps.bytes_sent));
      pin.version = g.version();
    } catch (const simt::DeviceFault&) {
      // A fault mid-patch leaves the replica inconsistent: drop residency;
      // the next query against this device re-uploads from scratch.
      pin.res.release(dev);
    }
  }

  if (rcache_.enabled()) {
    const auto res = rcache_.delta_invalidate(
        id, g.version(), [&](const svc::CacheKey& k) {
          return svc::entry_survives_delta(k, old_labels, affected);
        });
    rcache_versions_[reg.uid] = g.version();
    if (res.kept > 0) bump("svc.cache.delta_keep", static_cast<double>(res.kept));
    if (res.dropped > 0) {
      bump("svc.cache.invalidate", static_cast<double>(res.dropped));
    }
    if (trace::active()) {
      trace::ServiceEvent ev;
      ev.action = "cache_delta";
      ev.graph = id;
      ev.version = g.version();
      ev.bytes = res.kept;
      ev.ts_us = fleet_.device(0).now_us();
      trace::Tracer::instance().service(ev);
    }
  }
}

const graph::IncrementalCc& Session::incremental_cc(GraphId id) {
  auto it = regs_.find(id);
  AGG_CHECK_MSG(it != regs_.end(), "unknown GraphId");
  Registration& reg = it->second;
  if (!reg.inc_cc) reg.inc_cc = graph::IncrementalCc(reg.g->csr());
  return *reg.inc_cc;
}

void Session::unregister_graph(const Graph& g) {
  auto it = by_uid_.find(g.uid());
  if (it == by_uid_.end()) return;
  unregister_graph(it->second);
}

void Session::unregister_graph(GraphId id) {
  auto it = regs_.find(id);
  if (it == regs_.end()) return;
  Registration& reg = it->second;
  release_pins(reg);
  // Cached answers are only served to registered graphs; drop them so their
  // bytes return to the budget.
  if (rcache_.enabled()) rcache_.invalidate_graph(id);
  rcache_versions_.erase(reg.uid);
  by_uid_.erase(reg.uid);
  regs_.erase(it);
}

bool Session::is_registered(const Graph& g) const {
  return by_uid_.count(g.uid()) > 0;
}

GraphId Session::graph_id(const Graph& g) const {
  auto it = by_uid_.find(g.uid());
  return it == by_uid_.end() ? 0 : it->second;
}

void Session::evict(const Graph& g) {
  auto it = by_uid_.find(g.uid());
  if (it != by_uid_.end()) evict(it->second);
}

void Session::evict(GraphId id) {
  auto it = regs_.find(id);
  if (it != regs_.end()) release_pins(it->second);
}

void Session::evict_all() {
  for (auto& [id, reg] : regs_) release_pins(reg);
}

bool Session::is_resident(const Graph& g) const {
  const Registration* reg = find_reg(g);
  if (reg == nullptr) return false;
  return std::any_of(reg->pins.begin(), reg->pins.end(),
                     [](const Pin& pin) { return pin.res.uploaded(); });
}

void Session::enable_result_cache(std::size_t capacity_bytes) {
  rcache_.set_capacity(capacity_bytes);
  if (capacity_bytes == 0) {
    rcache_.clear();
    rcache_versions_.clear();
  }
}

std::uint64_t Session::rcache_graph_key(const Graph& g) const {
  const GraphId id = graph_id(g);
  return id != 0 ? id : g.uid();
}

void Session::rcache_refresh_version(const Graph& g) {
  auto [it, inserted] = rcache_versions_.try_emplace(g.uid(), g.version());
  if (inserted || it->second == g.version()) return;
  // The graph mutated since the last query: every cached answer for it is
  // stale. The version in the key already guarantees no hit; dropping them
  // eagerly returns their bytes to the budget.
  const std::size_t dropped = rcache_.invalidate_graph(rcache_graph_key(g));
  it->second = g.version();
  if (dropped > 0) {
    bump("svc.cache.invalidate", static_cast<double>(dropped));
    if (trace::active()) {
      trace::ServiceEvent ev;
      ev.action = "cache_invalidate";
      ev.graph = rcache_graph_key(g);
      ev.version = g.version();
      ev.bytes = dropped;  // entry count; their bytes are already released
      ev.ts_us = fleet_.device(0).now_us();
      trace::Tracer::instance().service(ev);
    }
  }
}

const svc::Payload* Session::rcache_lookup(const Graph& g,
                                           const exec::Query& q) {
  if (!rcache_.enabled() || !is_registered(g)) return nullptr;
  rcache_refresh_version(g);
  const svc::CacheKey key =
      svc::make_cache_key(rcache_graph_key(g), g.version(), q.algo, q.source,
                          q.damping, q.policy);
  const auto* e = rcache_.lookup(key);
  if (e == nullptr) {
    bump("svc.cache.miss");
    return nullptr;
  }
  // Serve from host memory at modeled copy cost; no kernel, no transfer.
  // Charged to device 0 — cache hits keep the single-device clock semantics
  // regardless of fleet size.
  fleet_.device(0).account_host_compute(rcache_cost_.hit_us(e->bytes));
  bump("svc.cache.hit");
  if (trace::active()) {
    trace::ServiceEvent ev;
    ev.action = "cache_hit";
    ev.algo = svc::algo_name(q.algo);
    ev.graph = rcache_graph_key(g);
    ev.version = g.version();
    ev.source = q.source;
    ev.bytes = e->bytes;
    ev.ts_us = fleet_.device(0).now_us();
    trace::Tracer::instance().service(ev);
  }
  return &e->value;
}

void Session::rcache_store(const Graph& g, const exec::Query& q,
                           svc::Payload payload) {
  if (!rcache_.enabled() || !is_registered(g)) return;
  rcache_refresh_version(g);
  const svc::CacheKey key =
      svc::make_cache_key(rcache_graph_key(g), g.version(), q.algo, q.source,
                          q.damping, q.policy);
  const std::size_t bytes = svc::payload_bytes(payload);
  const std::size_t before = rcache_.entries();
  const std::size_t evicted = rcache_.insert(key, std::move(payload), bytes);
  if (evicted > 0) bump("svc.cache.evict", static_cast<double>(evicted));
  if (rcache_.entries() > before - evicted) {
    bump("svc.cache.insert");
    gauge_max("svc.cache.bytes", static_cast<double>(rcache_.bytes_in_use()));
    if (trace::active()) {
      trace::ServiceEvent ev;
      ev.action = "cache_insert";
      ev.algo = svc::algo_name(q.algo);
      ev.graph = rcache_graph_key(g);
      ev.version = g.version();
      ev.source = q.source;
      ev.bytes = bytes;
      ev.ts_us = fleet_.device(0).now_us();
      trace::Tracer::instance().service(ev);
    }
  }
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
  if (const svc::Payload* hit = rcache_lookup(g, q)) return std::get<R>(*hit);
  R out = route<R>(
      [&](simt::DeviceIndex d) {
        exec::Resident call_scoped;
        try {
          Registration* reg = find_reg(g);
          exec::Resident& res =
              reg != nullptr ? ensure_fresh(*reg, d) : call_scoped;
          return std::get<R>(exec::run(fleet_.device(d), res, g, q));
        } catch (const simt::DeviceFault& f) {
          return detail::fault_result<R>(f);
        }
      },
      oracle);
  if (out.ok()) rcache_store(g, q, svc::Payload(out));
  return out;
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
    return adaptive::mst(fleet_.device(0), g, policy);
  }
  return route<MstResult>(
      [&](simt::DeviceIndex d) {
        return adaptive::mst(fleet_.device(d), g, policy);
      },
      [&] {
        return adaptive::mst(fleet_.device(0), g,
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
