#include "service/graph_service.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/cpu_cost_model.h"
#include "cpu/pagerank_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/csr.h"
#include "runtime/adaptive_engine.h"
#include "runtime/decision.h"
#include "simt/exec_pool.h"
#include "trace/counters.h"
#include "trace/trace_sink.h"

namespace svc {

namespace {

void bump(std::string_view name, double d = 1) {
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) reg.counter(name).add(d);
}

void gauge_max(const char* name, double v) {
  auto& reg = trace::CounterRegistry::instance();
  if (reg.enabled()) reg.gauge(name).set_max(v);
}

void bump_route(simt::DeviceIndex device) {
  bump("svc.route.dev" + std::to_string(device));
}

// Why `req` cannot be answered on `g`, or nullptr.
const char* request_error(const QueryRequest& req, const adaptive::Graph& g) {
  if (req.policy.mode == adaptive::Policy::Mode::cpu_serial) {
    return "cpu_serial policies are not servable (wall-clock timing)";
  }
  if (req.algo == Algo::sssp && !g.is_weighted()) {
    return "sssp requires edge weights";
  }
  if ((req.algo == Algo::bfs || req.algo == Algo::sssp) &&
      req.source >= g.num_nodes()) {
    return "source out of range";
  }
  return nullptr;
}

// Marks `out` failed with `code`: a bad request counts as completed, any
// other failure as failed.
void set_error(QueryOutcome& out, adaptive::ErrorCode code, std::string why) {
  out.status = adaptive::Status::error;
  out.error = std::move(why);
  out.code = code;
  bump(code == adaptive::ErrorCode::invalid_argument ? "svc.completed"
                                                      : "svc.failed");
}

}  // namespace

GraphService::GraphService(ServiceOptions opts, const simt::ClusterSpec& cluster)
    : opts_(opts), fleet_(cluster), cache_(opts.cache_bytes) {
  if (opts_.concurrency == 0) opts_.concurrency = 1;
  opts_.max_batch = std::clamp<std::uint32_t>(opts_.max_batch, 1,
                                              gg::kMaxBatchedSources);
  streams_.resize(fleet_.size());
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    if (opts_.concurrency == 1) {
      // One slot: the default stream, behind the upload and the caller's
      // own work on the device (see the header).
      streams_[d].push_back(0);
      continue;
    }
    streams_[d].reserve(opts_.concurrency);
    for (std::uint32_t i = 0; i < opts_.concurrency; ++i) {
      streams_[d].push_back(
          fleet_.device(d).create_stream("svc" + std::to_string(i)));
    }
  }
}

GraphService::~GraphService() {
  for (auto& entry : graphs_) {
    if (entry) release_graph(*entry);
  }
}

GraphService::GraphEntry& GraphService::at(GraphId id) const {
  AGG_CHECK_MSG(id < graphs_.size() && graphs_[id], "unknown GraphId");
  return *graphs_[id];
}

void GraphService::place_graph(GraphEntry& entry) {
  const adaptive::Graph& g = *entry.g;
  entry.plan =
      plan_placement(g.csr(), g.is_weighted(), fleet_, opts_.placement);
  if (entry.plan.replicated()) {
    entry.replicas.reserve(entry.plan.replicas.size());
    for (const simt::DeviceIndex d : entry.plan.replicas) {
      Replica rep;
      rep.device = d;
      if (fleet_.device(d).healthy()) rep.res.upload(fleet_.device(d), g);
      entry.replicas.push_back(std::move(rep));
    }
  } else {
    entry.sharded = make_sharded(fleet_, g.csr(), g.is_weighted(), entry.plan);
    bump("svc.placement.sharded");
  }
}

void GraphService::release_graph(GraphEntry& entry) {
  for (Replica& rep : entry.replicas) {
    rep.res.release(fleet_.device(rep.device));
  }
  entry.replicas.clear();
  if (entry.sharded) {
    release_sharded(fleet_, *entry.sharded);
    entry.sharded.reset();
  }
}

GraphId GraphService::add_graph(adaptive::Graph g) {
  auto entry = std::make_unique<GraphEntry>();
  entry->g = entry->mut = &entry->owned.emplace(std::move(g));
  return insert(std::move(entry));
}

GraphId GraphService::borrow_graph(const adaptive::Graph& g) {
  auto entry = std::make_unique<GraphEntry>();
  entry->g = &g;
  return insert(std::move(entry));
}

GraphId GraphService::borrow_graph(adaptive::Graph& g) {
  auto entry = std::make_unique<GraphEntry>();
  entry->g = entry->mut = &g;
  return insert(std::move(entry));
}

GraphId GraphService::insert(std::unique_ptr<GraphEntry> entry) {
  entry->version = entry->g->version();
  place_graph(*entry);
  graphs_.push_back(std::move(entry));
  return static_cast<GraphId>(graphs_.size() - 1);
}

void GraphService::update_graph(GraphId id, adaptive::Graph g) {
  GraphEntry& entry = at(id);
  release_graph(entry);
  entry.g = entry.mut = &entry.owned.emplace(std::move(g));
  entry.version = entry.g->version();
  entry.gen = next_gen_++;
  // The labels describe the replaced graph; a later delta must not advance
  // them.
  entry.inc_cc.reset();
  place_graph(entry);
  // The upload generation in the key already rules out a stale hit.
  drop_cached(id);
}

void GraphService::remove_graph(GraphId id) {
  GraphEntry& entry = at(id);
  AGG_CHECK_MSG(std::none_of(queue_.begin(), queue_.end(),
                             [&](const PendingQuery& q) {
                               return q.req.graph == id;
                             }),
                "remove_graph: items pending for the graph");
  release_graph(entry);
  drop_cached(id);
  graphs_[id].reset();
}

void GraphService::evict(GraphId id) {
  for (Replica& rep : at(id).replicas) {
    rep.res.release(fleet_.device(rep.device));
  }
}

bool GraphService::resident(GraphId id) const {
  const GraphEntry& entry = at(id);
  return entry.sharded.has_value() ||
         std::any_of(entry.replicas.begin(), entry.replicas.end(),
                     [](const Replica& rep) { return rep.res.uploaded(); });
}

void GraphService::refresh(GraphId id) {
  GraphEntry& entry = *graphs_[id];
  if (entry.version == entry.g->version()) return;
  entry.version = entry.g->version();
  entry.inc_cc.reset();
  if (entry.sharded) {
    release_graph(entry);
    place_graph(entry);
  } else {
    evict(id);
  }
  // The version in the key already rules out a stale hit.
  drop_cached(id);
}

void GraphService::drop_cached(GraphId id) {
  const std::size_t dropped = cache_.invalidate_graph(id);
  if (dropped == 0) return;
  bump("svc.cache.invalidate", static_cast<double>(dropped));
  gauge_max("svc.cache.bytes", static_cast<double>(cache_.bytes_in_use()));
  // The entry count; their bytes are already released.
  publish_graph_event("cache_invalidate", id, 0, dropped,
                      fleet_.device(0).now_us());
}

void GraphService::ensure_uploaded(Replica& rep, const adaptive::Graph& g,
                                   simt::StreamId stream) {
  if (rep.res.uploaded()) return;
  simt::Device& dev = fleet_.device(rep.device);
  simt::StreamGuard sguard(dev, stream);
  rep.res.upload(dev, g);
}

const adaptive::Graph& GraphService::graph(GraphId id) const {
  return *at(id).g;
}

const PlacementPlan& GraphService::placement(GraphId id) const {
  return at(id).plan;
}

std::optional<QueryId> GraphService::submit(QueryRequest req) {
  at(req.graph);  // aborts on an unknown id
  PendingQuery q;
  q.req = std::move(req);
  return enqueue(std::move(q));
}

std::optional<QueryId> GraphService::submit_mutation(GraphId graph,
                                                     graph::EdgeDelta delta) {
  AGG_CHECK_MSG(at(graph).mut != nullptr,
                "submit_mutation: the graph was borrowed const");
  PendingQuery q;
  q.req.graph = graph;
  q.mutation = std::move(delta);
  return enqueue(std::move(q));
}

std::optional<QueryId> GraphService::enqueue(PendingQuery q) {
  q.id = next_id_++;
  q.submit_us = fleet_.makespan_us();
  if (queue_.size() >= opts_.queue_capacity) {
    QueryOutcome out = make_outcome(q);
    out.mutation = q.mutation.has_value();
    out.status = adaptive::Status::rejected;
    out.error = "queue full";
    out.code = adaptive::ErrorCode::queue_full;
    done_.push_back(std::move(out));
    bump("svc.rejected");
    return std::nullopt;
  }
  queue_.push_back(std::move(q));
  bump("svc.queued");
  return queue_.back().id;
}

const graph::IncrementalCc& GraphService::incremental_cc(GraphId id) {
  GraphEntry& entry = at(id);
  refresh(id);
  if (!entry.inc_cc) entry.inc_cc = graph::IncrementalCc(entry.g->csr());
  return *entry.inc_cc;
}

simt::StreamId GraphService::pick_stream(simt::DeviceIndex device) const {
  const simt::Device& dev = fleet_.device(device);
  const std::vector<simt::StreamId>& pool = streams_[device];
  simt::StreamId best = pool.front();
  double best_ready = dev.stream_ready_us(best);
  for (std::size_t i = 1; i < pool.size(); ++i) {
    const double r = dev.stream_ready_us(pool[i]);
    if (r < best_ready) {
      best_ready = r;
      best = pool[i];
    }
  }
  return best;
}

GraphService::Replica* GraphService::replica_on(GraphEntry& entry,
                                                simt::DeviceIndex device) {
  for (Replica& rep : entry.replicas) {
    if (rep.device == device) return &rep;
  }
  return nullptr;
}

GraphService::Route GraphService::route_query(const GraphEntry& entry) const {
  // Earliest-modeled-ready-time over every healthy replica's stream pool.
  // Replicas are stored in device-ordinal order and pick_stream breaks ties
  // by lowest stream id, so the choice is deterministic.
  Route route;
  bool saw_dead = false;
  for (const Replica& rep : entry.replicas) {
    if (!fleet_.device(rep.device).healthy()) {
      saw_dead = true;
      continue;
    }
    const simt::StreamId s = pick_stream(rep.device);
    const double ready = fleet_.device(rep.device).stream_ready_us(s);
    if (!route.ok || ready < route.ready_us) {
      route.ok = true;
      route.device = rep.device;
      route.stream = s;
      route.ready_us = ready;
    }
  }
  route.failover = route.ok && saw_dead;
  return route;
}

bool GraphService::batchable(const PendingQuery& a, const PendingQuery& b) const {
  return !a.mutation && !b.mutation &&
         a.req.algo == Algo::bfs && b.req.algo == Algo::bfs &&
         a.req.graph == b.req.graph &&
         a.req.policy.mode == b.req.policy.mode &&
         a.req.policy.mode != adaptive::Policy::Mode::cpu_serial &&
         a.req.policy.variant == b.req.policy.variant;
}

std::vector<std::size_t> GraphService::batch_members(
    std::size_t head, const std::vector<char>& gone) const {
  std::vector<std::size_t> members{head};
  const PendingQuery& q = queue_[head];
  // batchable(q, q): a BFS under a servable policy. Sharded entries never
  // batch: their BSP executor has no fused multi-source path (queries run
  // whole-fleet supersteps instead).
  if (!opts_.batch_bfs || !batchable(q, q) ||
      !graphs_[q.req.graph]->plan.replicated()) {
    return members;
  }
  for (std::size_t j = head + 1;
       j < queue_.size() && members.size() < opts_.max_batch; ++j) {
    const PendingQuery& f = queue_[j];
    // The queries behind a mutation of the graph answer against its next
    // version.
    if (f.mutation && f.req.graph == q.req.graph) break;
    if ((j >= gone.size() || !gone[j]) && batchable(q, f)) {
      members.push_back(j);
    }
  }
  return members;
}

QueryOutcome GraphService::make_outcome(const PendingQuery& q) const {
  QueryOutcome out;
  out.id = q.id;
  out.algo = q.req.algo;
  out.graph = q.req.graph;
  out.submit_us = q.submit_us;
  return out;
}

bool GraphService::cache_servable(const QueryRequest& req) const {
  // cpu_serial is refused by the service anyway; everything else produces a
  // deterministic exact payload, so it can be keyed, cached and collapsed.
  return req.policy.mode != adaptive::Policy::Mode::cpu_serial;
}

CacheKey GraphService::key_for(const QueryRequest& req) const {
  const GraphEntry& entry = *graphs_[req.graph];
  return make_cache_key(req.graph, (entry.gen << 32) ^ entry.g->version(),
                        req.algo, req.source, req.damping, req.policy);
}

void GraphService::publish_service_event(const char* action,
                                         const QueryRequest& req, QueryId query,
                                         QueryId leader, std::uint64_t bytes,
                                         double ts_us) const {
  if (!trace::active()) return;
  const GraphEntry& entry = *graphs_[req.graph];
  trace::ServiceEvent ev;
  ev.action = action;
  ev.algo = algo_name(req.algo);
  ev.graph = req.graph;
  ev.version = (entry.gen << 32) ^ entry.g->version();
  ev.source = req.source;
  ev.query = query;
  ev.leader = leader;
  ev.bytes = bytes;
  ev.ts_us = ts_us;
  trace::Tracer::instance().service(ev);
}

void GraphService::publish_graph_event(const char* action, GraphId id,
                                       QueryId query, std::uint64_t bytes,
                                       double ts_us) const {
  if (!trace::active()) return;
  const GraphEntry& entry = *graphs_[id];
  trace::ServiceEvent ev;
  ev.action = action;
  ev.graph = id;
  ev.version = (entry.gen << 32) ^ entry.g->version();
  ev.query = query;
  ev.bytes = bytes;
  ev.ts_us = ts_us;
  trace::Tracer::instance().service(ev);
}

void GraphService::serve_copy(const PendingQuery& q, const Payload& payload,
                              std::size_t bytes, QueryOutcome& out,
                              QueryId leader, double not_before) {
  // Host-memory serving: the payload is copied out of the cache (or the
  // collapse leader's outcome) on the modeled single-core host timeline.
  // The device is untouched — no kernel, no transfer, no stream slot.
  const double start =
      std::max(std::max(host_ready_us_, q.submit_us), not_before);
  const double dur = opts_.cache_cost.hit_us(bytes);
  host_ready_us_ = start + dur;
  out.payload = payload;
  out.cached = leader == 0;
  out.collapsed = leader != 0;
  out.collapsed_into = leader;
  out.stream = 0;  // never dispatched to a device stream
  out.start_us = start;
  out.finish_us = host_ready_us_;
  check_deadline(q, out);
}

void GraphService::check_deadline(const PendingQuery& q, QueryOutcome& out) {
  if (q.req.deadline_us > 0 &&
      out.finish_us > q.submit_us + q.req.deadline_us) {
    out.status = adaptive::Status::timed_out;
    out.code = adaptive::ErrorCode::deadline_exceeded;
    out.payload = std::monostate{};
    bump("svc.timeout");
  } else {
    bump("svc.completed");
  }
}

void GraphService::store_result(const PendingQuery& q, const Payload& payload,
                                double ready_us) {
  // Only completed exact payloads reach this point: faulted attempts throw
  // before their outcome carries a payload, and error paths never call it —
  // a partial result can therefore never poison the cache.
  if (!cache_.enabled() || !cache_servable(q.req)) return;
  if (std::holds_alternative<std::monostate>(payload)) return;
  const CacheKey key = key_for(q.req);
  const std::size_t bytes = payload_bytes(payload);
  const std::size_t before = cache_.entries();
  const std::size_t evicted = cache_.insert(key, payload, bytes, ready_us);
  if (evicted > 0) bump("svc.cache.evict", static_cast<double>(evicted));
  if (cache_.entries() > before - evicted) {
    bump("svc.cache.insert");
    gauge_max("svc.cache.bytes", static_cast<double>(cache_.bytes_in_use()));
    publish_service_event("cache_insert", q.req, q.id, 0, bytes,
                          fleet_.device(0).now_us());
  }
}

std::vector<QueryOutcome> GraphService::drain() {
  looking_ahead_ = queue_.size() > 1 && can_look_ahead();
  while (!queue_.empty()) {
    refresh(queue_.front().req.graph);
    if (looking_ahead_) look_ahead();
    // Mutations execute strictly in admission order: everything ahead of
    // one in the FIFO has already run against the old version by the time
    // it applies, everything behind it sees the new version.
    if (queue_.front().mutation) {
      PendingQuery q = std::move(queue_.front());
      queue_.pop_front();
      // No recording may read the graph while it changes.
      if (looking_ahead_) settle(q.req.graph);
      execute_mutation(std::move(q));
      continue;
    }
    const std::vector<std::size_t> members = batch_members(0, {});
    if (members.size() > 1) {
      std::vector<PendingQuery> batch;
      batch.reserve(members.size());
      for (const std::size_t j : members) {
        batch.push_back(std::move(queue_[j]));
      }
      // Back to front, so the positions ahead stay valid; the queries the
      // batch passed keep their order.
      for (auto it = members.rbegin(); it != members.rend(); ++it) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*it));
      }
      execute_bfs_batch(std::move(batch));
    } else {
      PendingQuery q = std::move(queue_.front());
      queue_.pop_front();
      execute_query(std::move(q));
    }
  }
  if (looking_ahead_) settle(std::nullopt);
  looking_ahead_ = false;
  return std::exchange(done_, {});
}

// ---- query-parallel drains ----

struct GraphService::Recorded final : simt::ExecPool::Task {
  // The key the dispatched unit must match.
  bool batch = false;
  QueryId id = 0;  // the query, or the batch member whose policy runs
  GraphId graph = 0;
  const adaptive::Graph* g = nullptr;
  std::uint64_t version = 0;
  std::vector<graph::NodeId> sources;  // a batch's, deduplicated
  std::uint32_t residency = 0;         // of the replica recorded against
  bool consumed = false;               // dispatched, or passed by the loop

  // What the worker records with, made on the serving thread.
  std::optional<simt::Device> recorder;
  exec::Resident view;
  exec::Query query;
  adaptive::Policy policy;
  exec::Recording rec;

  void run() override {
    rec = batch ? exec::record_batch(std::move(*recorder), view, *g, sources,
                                     policy)
                : exec::record(std::move(*recorder), view, *g, query);
  }
};

bool GraphService::can_look_ahead() const {
  if (simt::ExecPool::threads() < 2 || trace::active()) return false;
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    if (fleet_.device(d).fault_armed()) return false;
  }
  return true;
}

const GraphService::Replica* GraphService::record_replica(
    const GraphEntry& entry) const {
  if (!entry.plan.replicated() || entry.version != entry.g->version()) {
    return nullptr;
  }
  for (const Replica& rep : entry.replicas) {
    const simt::Device& dev = fleet_.device(rep.device);
    if (dev.healthy() && dev.recordable() && rep.res.uploaded() &&
        rep.steady == exec::residency(rep.res)) {
      return &rep;
    }
  }
  return nullptr;
}

template <typename Unit>
auto GraphService::run_inline(Replica& rep, Unit&& unit) {
  const std::uint32_t before = exec::residency(rep.res);
  rep.steady.reset();
  auto result = unit();
  if (exec::residency(rep.res) == before) rep.steady = before;
  return result;
}

void GraphService::look_ahead() {
  simt::ExecPool& pool = simt::ExecPool::instance();
  // Units whose query the loop has passed can no longer be dispatched.
  std::vector<QueryId> queued;
  queued.reserve(queue_.size());
  for (const PendingQuery& q : queue_) queued.push_back(q.id);
  std::sort(queued.begin(), queued.end());
  for (auto it = recorded_.begin(); it != recorded_.end();) {
    Recorded& u = **it;
    if (!u.consumed &&
        !std::binary_search(queued.begin(), queued.end(), u.id)) {
      u.consumed = true;
      ++recording_stats_.unused;
    }
    if (u.consumed && (pool.claim(u) || pool.done(u))) {
      it = recorded_.erase(it);
    } else {
      ++it;
    }
  }

  // The loop's grouping, simulated over the queue as it stands: fused BFS
  // batches and collapse followers taken out, mutations as version barriers.
  const std::size_t limit =
      2 * static_cast<std::size_t>(simt::ExecPool::threads());
  // Units led from further back than this are not recorded before the loop
  // gets closer. A batch's members are searched over the whole window, as
  // drain() does, or the recording would fuse fewer sources than the loop.
  const std::size_t n = std::min(queue_.size(), 4 * limit);
  std::vector<char> gone(queue_.size(), 0);
  std::vector<GraphId> barred;
  const auto is_barred = [&barred](GraphId g) {
    return std::find(barred.begin(), barred.end(), g) != barred.end();
  };
  std::size_t i = 0;
  while (i < n && recorded_.size() < limit) {
    if (gone[i]) {
      ++i;
      continue;
    }
    const PendingQuery& q = queue_[i];
    if (q.mutation) {
      barred.push_back(q.req.graph);
      ++i;
      continue;
    }
    const std::vector<std::size_t> batch = batch_members(i, gone);
    if (batch.size() > 1) {
      std::vector<const PendingQuery*> members;
      members.reserve(batch.size());
      for (const std::size_t j : batch) {
        gone[j] = 1;
        members.push_back(&queue_[j]);
      }
      if (!is_barred(q.req.graph)) record_batch_ahead(members);
      ++i;
      continue;
    }
    if (opts_.collapse && cache_servable(q.req)) {
      const CacheKey key = key_for(q.req);
      for (std::size_t k = i + 1; k < n; ++k) {
        const PendingQuery& f = queue_[k];
        if (f.mutation) {
          if (f.req.graph == q.req.graph) break;
          continue;
        }
        if (!gone[k] && cache_servable(f.req) && key_for(f.req) == key) {
          gone[k] = 1;
        }
      }
    }
    // A unit bound to pin is a barrier too: it changes the replica's
    // residency, so every recording behind it would go stale.
    if (!is_barred(q.req.graph) && record_ahead(q)) {
      barred.push_back(q.req.graph);
    }
    ++i;
  }
}

bool GraphService::record_ahead(const PendingQuery& q) {
  const GraphEntry& entry = *graphs_[q.req.graph];
  const Replica* rep = record_replica(entry);
  if (rep == nullptr || request_error(q.req, *entry.g) != nullptr) {
    return false;
  }
  if (cache_servable(q.req) && cache_.contains(key_for(q.req))) return false;
  for (const auto& u : recorded_) {
    if (!u->batch && u->id == q.id) return false;
  }
  const exec::Query query{q.req.algo, q.req.source, q.req.damping,
                          q.req.policy, 0};
  if (!exec::prepare_recording(rep->res, *entry.g, query)) return true;
  auto u = std::make_unique<Recorded>();
  u->id = q.id;
  u->graph = q.req.graph;
  u->g = entry.g;
  u->version = entry.g->version();
  u->residency = exec::residency(rep->res);
  u->recorder.emplace(simt::Device::recorder(fleet_.device(rep->device)));
  u->view = rep->res.alias();
  u->query = query;
  simt::ExecPool::instance().submit(*u);
  ++recording_stats_.recorded;
  recorded_.push_back(std::move(u));
  return false;
}

void GraphService::record_batch_ahead(
    const std::vector<const PendingQuery*>& members) {
  const GraphEntry& entry = *graphs_[members.front()->req.graph];
  const Replica* rep = record_replica(entry);
  if (rep == nullptr) return;
  // The members execute_bfs_batch would fuse: valid and not cached.
  std::vector<const PendingQuery*> live;
  for (const PendingQuery* m : members) {
    if (request_error(m->req, *entry.g) != nullptr) continue;
    if (cache_servable(m->req) && cache_.contains(key_for(m->req))) continue;
    live.push_back(m);
  }
  if (live.empty()) return;
  for (const auto& u : recorded_) {
    if (u->batch && u->id == live.front()->id) return;
  }
  auto u = std::make_unique<Recorded>();
  u->batch = true;
  u->id = live.front()->id;
  for (const PendingQuery* m : live) {
    const graph::NodeId s = m->req.source;
    if (!opts_.collapse ||
        std::find(u->sources.begin(), u->sources.end(), s) == u->sources.end()) {
      u->sources.push_back(s);
    }
  }
  u->graph = live.front()->req.graph;
  u->g = entry.g;
  u->version = entry.g->version();
  u->residency = exec::residency(rep->res);
  u->recorder.emplace(simt::Device::recorder(fleet_.device(rep->device)));
  u->view = rep->res.alias();
  u->policy = live.front()->req.policy;
  simt::ExecPool::instance().submit(*u);
  ++recording_stats_.recorded;
  recorded_.push_back(std::move(u));
}

exec::Recording* GraphService::take_recorded(
    QueryId id, bool batch, const std::vector<graph::NodeId>& sources,
    const GraphEntry& entry, const Replica& rep, bool resident) {
  if (!looking_ahead_) return nullptr;
  Recorded* found = nullptr;
  for (const auto& u : recorded_) {
    if (!u->consumed && u->batch == batch && u->id == id) {
      found = u.get();
      break;
    }
  }
  if (found == nullptr) return nullptr;
  Recorded& u = *found;
  u.consumed = true;
  simt::ExecPool& pool = simt::ExecPool::instance();
  if (pool.claim(u)) {
    ++recording_stats_.unstarted;
    return nullptr;
  }
  if (!resident || u.g != entry.g || u.version != entry.g->version() ||
      (batch && u.sources != sources) ||
      u.residency != exec::residency(rep.res)) {
    ++recording_stats_.stale;
    return nullptr;
  }
  pool.wait(u);
  return &u.rec;
}

void GraphService::settle(std::optional<GraphId> graph) {
  simt::ExecPool& pool = simt::ExecPool::instance();
  const auto in_scope = [&](const Recorded& u) {
    return !graph || u.graph == *graph;
  };
  // Take back every queued recording first: wait() runs queued tasks on
  // this thread, and those would otherwise be recorded only to be dropped.
  for (const auto& u : recorded_) {
    if (in_scope(*u)) pool.claim(*u);
  }
  for (auto it = recorded_.begin(); it != recorded_.end();) {
    Recorded& u = **it;
    if (!in_scope(u)) {
      ++it;
      continue;
    }
    if (!u.consumed) ++recording_stats_.unused;
    pool.wait(u);
    it = recorded_.erase(it);
  }
}

void GraphService::execute_query(PendingQuery q) {
  // Request collapsing (singleflight): every identical pending query —
  // anywhere in the queue — attaches to this execution and is served a copy
  // of its result instead of re-running.
  std::vector<PendingQuery> followers;
  if (opts_.collapse && cache_servable(q.req)) {
    const CacheKey key = key_for(q.req);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->mutation) {
        // A pending mutation of the same graph is a version barrier: keys
        // are computed against the current version, so a query behind it
        // must not collapse onto this pre-mutation execution.
        if (it->req.graph == q.req.graph) break;
        ++it;
        continue;
      }
      if (cache_servable(it->req) && key_for(it->req) == key) {
        followers.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const QueryId leader = q.id;
  execute_single(std::move(q));
  if (followers.empty()) return;

  const QueryOutcome& led = done_.back();
  if (led.id == leader &&
      !std::holds_alternative<std::monostate>(led.payload)) {
    // Copy once: pushing follower outcomes may reallocate done_.
    const Payload payload = led.payload;
    const double not_before = led.finish_us;
    const std::size_t bytes = payload_bytes(payload);
    for (PendingQuery& f : followers) {
      QueryOutcome out = make_outcome(f);
      serve_copy(f, payload, bytes, out, leader, not_before);
      bump("svc.collapse");
      publish_service_event("collapse", f.req, f.id, leader, bytes,
                            out.finish_us);
      done_.push_back(std::move(out));
    }
  } else {
    // The leader produced no payload (error, or its deadline dropped it);
    // followers execute on their own — the first success repopulates the
    // cache and answers the rest.
    for (PendingQuery& f : followers) execute_single(std::move(f));
  }
}

void GraphService::finish_outcome(QueryOutcome& out, simt::DeviceIndex device,
                                  simt::StreamId stream, double start) {
  out.device = device;
  out.stream = stream;
  out.start_us = start;
  out.finish_us = fleet_.device(device).stream_ready_us(stream);
  // Modeled concurrency at this point in the schedule: streams — across the
  // whole fleet — still busy past this query's start.
  std::uint32_t inflight = 0;
  for (simt::DeviceIndex d = 0; d < fleet_.size(); ++d) {
    for (const simt::StreamId s : streams_[d]) {
      if (fleet_.device(d).stream_ready_us(s) > start) ++inflight;
    }
  }
  gauge_max("svc.running", inflight);
}

void GraphService::execute_single(PendingQuery q) {
  QueryOutcome out = make_outcome(q);
  GraphEntry& entry = *graphs_[q.req.graph];
  const adaptive::Graph& g = *entry.g;

  if (const char* why = request_error(q.req, g)) {
    set_error(out, adaptive::ErrorCode::invalid_argument, why);
    done_.push_back(std::move(out));
    return;
  }

  // Result cache: a completed exact answer for this key is served from host
  // memory — before the health check, because a hit needs no device at all.
  if (cache_.enabled() && cache_servable(q.req)) {
    if (const auto* e = cache_.lookup(key_for(q.req))) {
      serve_copy(q, e->value, e->bytes, out, 0, e->ready_us);
      bump("svc.cache.hit");
      publish_service_event("cache_hit", q.req, q.id, 0, e->bytes,
                            out.finish_us);
      done_.push_back(std::move(out));
      return;
    }
    bump("svc.cache.miss");
  }

  if (entry.sharded) {
    execute_sharded(std::move(q), entry, std::move(out));
    return;
  }

  Route route = route_query(entry);
  if (!route.ok) {
    // No healthy replica holds the graph: every attempt would fail
    // permanently, so skip straight to degradation (or report the loss when
    // degradation is off). This is the single-device dead-device behavior.
    if (opts_.resilience.degrade_to_cpu) {
      degrade(q, g, out, "svc.degraded.dead");
    } else {
      set_error(out, adaptive::ErrorCode::device_lost,
                "no healthy replica for graph " + std::to_string(q.req.graph) +
                    " (" + std::to_string(entry.replicas.size()) +
                    " replicas, all devices lost)");
    }
    done_.push_back(std::move(out));
    return;
  }
  if (route.failover) {
    // A dead replica was routed around: the query is served by a surviving
    // device instead of degrading to the CPU.
    out.failover = true;
    bump("svc.failover");
  }

  double ready = route.ready_us;
  if (q.req.deadline_us > 0 && ready > q.submit_us + q.req.deadline_us) {
    // The earliest slot already misses the deadline. The CPU may still make
    // it: its timeline is independent of the congested streams.
    rt::FallbackInput fi;
    fi.device_healthy = true;
    fi.deadline_us = q.req.deadline_us;
    fi.submit_us = q.submit_us;
    fi.gpu_start_us = ready;
    fi.cpu_start_us = std::max(host_ready_us_, q.submit_us);
    fi.cpu_estimate_us = estimate_cpu_us(q.req.algo, g);
    if (opts_.resilience.degrade_to_cpu && rt::choose_cpu_fallback(fi)) {
      degrade(q, g, out, "svc.degraded.deadline");
      done_.push_back(std::move(out));
      return;
    }
    // Time out without spending device time.
    out.status = adaptive::Status::timed_out;
    out.code = adaptive::ErrorCode::deadline_exceeded;
    out.device = route.device;
    out.stream = route.stream;
    out.start_us = ready;
    done_.push_back(std::move(out));
    bump("svc.timeout");
    return;
  }

  // Resilient execution: retry transient faults with modeled-time backoff on
  // the routed slot, fail over to a surviving replica when the device dies,
  // then degrade to the CPU oracle (or fail) per the resilience policy.
  bump_route(route.device);
  int attempts = 0;
  for (;;) {
    simt::Device& dev = fleet_.device(route.device);
    Replica* rep = replica_on(entry, route.device);
    AGG_CHECK(rep != nullptr);
    try {
      const bool resident = rep->res.uploaded();
      ensure_uploaded(*rep, g, route.stream);
      exec::Recording* rec =
          take_recorded(q.id, /*batch=*/false, {}, entry, *rep, resident);
      if (rec != nullptr && exec::commit(dev, route.stream, rep->res, g, *rec)) {
        ++recording_stats_.committed;
        out.payload = std::move(rec->payload);
      } else {
        if (rec != nullptr) ++recording_stats_.refused;
        out.payload = run_inline(*rep, [&] {
          return exec::run(dev, rep->res, g,
                           {q.req.algo, q.req.source, q.req.damping,
                            q.req.policy, route.stream});
        });
      }
      break;
    } catch (const simt::DeviceFault& f) {
      ++attempts;
      bump("svc.fault");
      bump(std::string("svc.fault.") + simt::fault_kind_name(f.kind()));
      const FaultAction action =
          next_action(opts_.resilience, attempts, f.permanent(), dev.healthy(),
                      route_query(entry).ok);
      if (action == FaultAction::retry) {
        const double delay = backoff_us(opts_.resilience, attempts);
        {
          simt::StreamGuard sguard(dev, route.stream);
          dev.account_host_compute(delay);
        }
        ++out.retries;
        bump("svc.retry");
        bump("svc.retry.backoff_us", delay);
        continue;
      }
      if (action == FaultAction::failover) {
        // The routed device is dead but another replica survives: re-route
        // and re-execute there. Failed-over attempts count as retries.
        route = route_query(entry);
        AGG_CHECK(route.ok);
        ready = route.ready_us;
        out.failover = true;
        ++out.retries;
        bump("svc.failover");
        bump_route(route.device);
        continue;
      }
      if (action == FaultAction::degrade) {
        degrade(q, g, out,
                f.permanent() ? "svc.degraded.dead" : "svc.degraded.fault");
        done_.push_back(std::move(out));
        return;
      }
      set_error(out, adaptive::detail::fault_code(f), f.what());
      out.device = route.device;
      out.stream = route.stream;
      out.start_us = ready;
      done_.push_back(std::move(out));
      return;
    }
  }

  finish_outcome(out, route.device, route.stream, ready);
  // The payload is complete and exact, so it enters the cache even when the
  // deadline check right after drops it from this outcome.
  store_result(q, out.payload, out.finish_us);
  check_deadline(q, out);
  done_.push_back(std::move(out));
}

void GraphService::execute_mutation(PendingQuery q) {
  QueryOutcome out = make_outcome(q);
  out.mutation = true;
  GraphEntry& entry = *graphs_[q.req.graph];
  const graph::EdgeDelta& delta = *q.mutation;

  const std::string err = graph::delta_error(entry.g->csr(), delta);
  if (!err.empty()) {
    // The graph is untouched: an inapplicable delta is the caller's bug and
    // must not leave host/device state out of sync.
    set_error(out, adaptive::ErrorCode::invalid_argument,
              "inapplicable delta: " + err);
    done_.push_back(std::move(out));
    return;
  }
  const double start = std::max(host_ready_us_, q.submit_us);
  if (delta.empty()) {
    out.start_us = start;
    out.finish_us = start;
    done_.push_back(std::move(out));
    bump("svc.completed");
    return;
  }

  bump("svc.mutate");
  bump("svc.mutate.edges", static_cast<double>(delta.num_ops()));

  // Snapshot the pre-delta component labels: the cache keep-test below is
  // defined entirely in terms of the OLD partition.
  if (!entry.inc_cc) entry.inc_cc = graph::IncrementalCc(entry.g->csr());
  std::vector<std::uint32_t> old_labels;
  std::vector<std::uint32_t> affected;
  if (cache_.enabled()) {
    old_labels.assign(entry.inc_cc->labels().begin(),
                      entry.inc_cc->labels().end());
    affected = affected_components(old_labels, delta);
  }

  // Host-side apply + incremental CC update, charged to the modeled host
  // timeline (the same single-core line degraded queries and cache hits
  // use): proportional to the delta plus the CC rescan it forced.
  entry.mut->apply_delta(delta);
  entry.version = entry.g->version();
  entry.inc_cc->apply(entry.g->csr(), delta);
  const std::size_t host_bytes =
      delta.num_ops() * 16 + entry.inc_cc->last_edges_rescanned() * 8;
  host_ready_us_ = start + opts_.cache_cost.hit_us(host_bytes);
  out.start_us = start;
  double finish = host_ready_us_;

  if (entry.plan.replicated()) {
    // Patch every healthy resident replica in place (an evicted one uploads
    // the new graph on its next attempt). The patch transfer is ordered
    // after everything already issued on the device (max over the stream
    // pool): a dispatched pre-mutation query may still be reading the very
    // buffers the patch overwrites. Post-mutation queries in turn start
    // after the patch on every stream.
    std::vector<std::size_t> dead;
    for (std::size_t ri = 0; ri < entry.replicas.size(); ++ri) {
      Replica& rep = entry.replicas[ri];
      simt::Device& dev = fleet_.device(rep.device);
      if (!dev.healthy() || !rep.res.uploaded()) continue;
      double barrier = host_ready_us_;
      for (const simt::StreamId s : streams_[rep.device]) {
        barrier = std::max(barrier, dev.stream_ready_us(s));
      }
      const simt::StreamId s0 = streams_[rep.device].front();
      {
        simt::StreamGuard sguard(dev, s0);
        const double r0 = dev.stream_ready_us(s0);
        if (barrier > r0) dev.account_host_compute(barrier - r0);
        try {
          const gg::DeviceGraph::PatchStats ps = rep.res.patch(dev, *entry.g);
          out.rebuilt = out.rebuilt || ps.rebuilt;
          bump(ps.rebuilt ? "svc.mutate.rebuild" : "svc.mutate.patch");
          bump("svc.mutate.bytes", static_cast<double>(ps.bytes_sent));
        } catch (const simt::DeviceFault&) {
          // The replica's device copy may be half-patched: re-upload it from
          // scratch; if the device cannot even hold a fresh copy, drop the
          // replica (routing skips it from now on).
          bump("svc.fault");
          try {
            rep.res.upload(dev, *entry.g);
            out.rebuilt = true;
            bump("svc.mutate.reupload");
          } catch (const simt::DeviceFault&) {
            dead.push_back(ri);
          }
        }
      }
      // Make the patch a barrier for the rest of the pool: subsequent
      // queries on any stream must observe the new CSR.
      const double patched = dev.stream_ready_us(s0);
      for (const simt::StreamId s : streams_[rep.device]) {
        if (s == s0) continue;
        const double r = dev.stream_ready_us(s);
        if (patched > r) {
          simt::StreamGuard sguard(dev, s);
          dev.account_host_compute(patched - r);
        }
      }
      finish = std::max(finish, patched);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      entry.replicas.erase(entry.replicas.begin() +
                           static_cast<std::ptrdiff_t>(*it));
    }
  } else {
    // Sharded placements have no incremental patch path (shard boundaries
    // move with the edge distribution): compacting re-place. The upload
    // generation stays — the version bump already retires stale keys, and
    // placement does not change answers.
    release_graph(entry);
    place_graph(entry);
    out.rebuilt = true;
    bump("svc.mutate.reshard");
    if (entry.sharded) {
      for (const Shard& sh : entry.sharded->shards) {
        finish = std::max(finish, fleet_.device(sh.device).now_us());
      }
    }
  }

  // Delta-aware cache invalidation: survivors are re-keyed to the new
  // version so post-mutation repeats still hit.
  if (cache_.enabled()) {
    const std::uint64_t new_version = (entry.gen << 32) ^ entry.g->version();
    const auto res = cache_.delta_invalidate(
        q.req.graph, new_version, [&](const CacheKey& k) {
          return entry_survives_delta(k, old_labels, affected);
        });
    if (res.kept > 0) bump("svc.cache.delta_keep", static_cast<double>(res.kept));
    if (res.dropped > 0) {
      bump("svc.cache.invalidate", static_cast<double>(res.dropped));
    }
    gauge_max("svc.cache.bytes", static_cast<double>(cache_.bytes_in_use()));
    // Survivors; the dropped entries' bytes are already released.
    publish_graph_event("cache_delta", q.req.graph, q.id, res.kept, finish);
  }
  publish_graph_event("mutate", q.req.graph, q.id, delta.num_ops(), finish);
  out.finish_us = finish;
  done_.push_back(std::move(out));
  bump("svc.completed");
}

void GraphService::execute_sharded(PendingQuery q, GraphEntry& entry,
                                   QueryOutcome out) {
  const adaptive::Graph& g = *entry.g;
  ShardedGraph& sg = *entry.sharded;
  bump("svc.sharded");

  // A BSP superstep needs every shard's device; a single dead shard device
  // makes the sharded copy unusable (there are no replicas to fail over to),
  // so the query degrades to the CPU oracle — or reports the loss.
  for (std::size_t si = 0; si < sg.shards.size(); ++si) {
    const Shard& sh = sg.shards[si];
    if (fleet_.device(sh.device).healthy()) continue;
    if (opts_.resilience.degrade_to_cpu) {
      degrade(q, g, out, "svc.degraded.dead");
    } else {
      set_error(out, adaptive::ErrorCode::device_lost,
                "shard " + std::to_string(si) + " of graph " +
                    std::to_string(q.req.graph) + " on " +
                    fleet_.device(sh.device).label() + " lost");
    }
    done_.push_back(std::move(out));
    return;
  }

  // SSSP / PageRank have no sharded kernels: the exact CPU oracle answers
  // (degraded outcome), never a wrong answer.
  if (q.req.algo == Algo::sssp || q.req.algo == Algo::pagerank) {
    degrade(q, g, out, "svc.degraded.sharded");
    done_.push_back(std::move(out));
    return;
  }

  // One stream per shard, earliest-ready on each owner device.
  std::vector<simt::StreamId> shard_streams;
  std::vector<std::uint64_t> marks;
  std::vector<char> had_sym;
  shard_streams.reserve(sg.shards.size());
  for (const Shard& sh : sg.shards) {
    shard_streams.push_back(pick_stream(sh.device));
    marks.push_back(fleet_.device(sh.device).mem_mark());
    had_sym.push_back(sh.sym_dg.has_value() ? 1 : 0);
    bump_route(sh.device);
  }

  ShardedRun run;
  try {
    switch (q.req.algo) {
      case Algo::bfs: {
        adaptive::BfsResult r;
        run = sharded_bfs(fleet_, sg, q.req.source, shard_streams, q.submit_us,
                          r.level);
        out.payload = std::move(r);
        break;
      }
      case Algo::cc: {
        adaptive::CcResult r;
        run = sharded_cc(fleet_, sg, shard_streams, q.submit_us, q.req.policy,
                         r.component, r.num_components);
        out.payload = std::move(r);
        break;
      }
      default:
        AGG_CHECK(false);
    }
  } catch (const simt::DeviceFault& f) {
    // A shard attempt died mid-superstep. Partial BSP state spans several
    // devices, so there is no cheap same-placement retry; reclaim every
    // shard device's scratch and answer from the CPU oracle per policy.
    for (std::size_t i = 0; i < sg.shards.size(); ++i) {
      fleet_.device(sg.shards[i].device).mem_reclaim(marks[i]);
      if (!had_sym[i] && sg.shards[i].sym_dg) sg.shards[i].sym_dg.reset();
    }
    bump("svc.fault");
    bump(std::string("svc.fault.") + simt::fault_kind_name(f.kind()));
    if (opts_.resilience.degrade_to_cpu) {
      degrade(q, g, out,
              f.permanent() ? "svc.degraded.dead" : "svc.degraded.fault");
    } else {
      set_error(out, adaptive::detail::fault_code(f), f.what());
    }
    done_.push_back(std::move(out));
    return;
  }

  out.sharded = true;
  out.device = sg.shards.front().device;
  out.stream = shard_streams.front();
  out.start_us = run.start_us;
  out.finish_us = run.finish_us;
  store_result(q, out.payload, out.finish_us);
  check_deadline(q, out);
  done_.push_back(std::move(out));
}

void GraphService::degrade(const PendingQuery& q, const adaptive::Graph& g,
                           QueryOutcome& out, const char* why) {
  const double start = std::max(host_ready_us_, q.submit_us);
  exec::CpuAnswer a = exec::run_cpu(
      g, {q.req.algo, q.req.source, q.req.damping, q.req.policy, 0});
  std::visit(
      [](auto& r) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(r)>,
                                      std::monostate>) {
          r.degraded = true;
        }
      },
      a.payload);
  out.payload = std::move(a.payload);
  host_ready_us_ = start + a.modeled_us;
  out.degraded = true;
  out.stream = 0;  // never dispatched to a device stream
  out.start_us = start;
  out.finish_us = host_ready_us_;
  bump("svc.degraded");
  bump(why);
  bump("svc.completed");
  store_result(q, out.payload, out.finish_us);
}

double GraphService::estimate_cpu_us(Algo algo, const adaptive::Graph& g) const {
  const cpu::CpuModel& model = cpu::CpuModel::core_i7();
  const std::uint32_t n = g.num_nodes();
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  switch (algo) {
    case Algo::bfs: {
      cpu::BfsCounts c;
      c.nodes_popped = n;
      c.edges_scanned = m;
      return model.bfs_time_us(c, n);
    }
    case Algo::sssp: {
      cpu::SsspCounts c;
      c.heap_pops = n;
      c.heap_pushes = m;
      c.edges_relaxed = m;
      return model.dijkstra_time_us(c, n);
    }
    case Algo::cc: {
      cpu::CcCounts c;
      c.edges_scanned = m;
      c.find_steps = 2 * m;
      return model.cc_time_us(c, n);
    }
    case Algo::pagerank: {
      cpu::PageRankCounts c;
      c.iterations = 20;  // typical convergence at the default tolerance
      c.edge_updates = 20 * m;
      return model.pagerank_time_us(c, n);
    }
  }
  return 0;
}

void GraphService::execute_bfs_batch(std::vector<PendingQuery> batch) {
  GraphEntry& entry = *graphs_[batch.front().req.graph];
  const adaptive::Graph& g = *entry.g;
  const std::size_t k = batch.size();

  // Per-member validity and cache screening: invalid members get an error
  // outcome, cache hits are served from host memory, and only the rest —
  // `live`, as indices into `batch` — head for the fused launch.
  std::vector<QueryOutcome> outs;
  outs.reserve(k);
  std::vector<char> resolved(k, 0);
  std::vector<std::size_t> live;
  // Records the members already answered, then runs each live member
  // through the single-query path.
  const auto unbatch = [&] {
    for (std::size_t i = 0; i < k; ++i) {
      if (resolved[i]) done_.push_back(std::move(outs[i]));
    }
    for (const std::size_t i : live) execute_single(std::move(batch[i]));
  };
  for (std::size_t i = 0; i < k; ++i) {
    const PendingQuery& q = batch[i];
    QueryOutcome out = make_outcome(q);
    if (const char* why = request_error(q.req, g)) {
      set_error(out, adaptive::ErrorCode::invalid_argument, why);
      resolved[i] = 1;
    } else {
      const ResultCache<Payload>::Entry* e =
          cache_.enabled() && cache_servable(q.req)
              ? cache_.lookup(key_for(q.req))
              : nullptr;
      if (e != nullptr) {
        serve_copy(q, e->value, e->bytes, out, 0, e->ready_us);
        bump("svc.cache.hit");
        publish_service_event("cache_hit", q.req, q.id, 0, e->bytes,
                              out.finish_us);
        resolved[i] = 1;
      } else {
        if (cache_.enabled() && cache_servable(q.req)) bump("svc.cache.miss");
        live.push_back(i);
      }
    }
    outs.push_back(std::move(out));
  }

  if (!live.empty()) {
    const Route route = route_query(entry);
    if (!route.ok) {
      // No healthy replica: the single-query path degrades or fails.
      unbatch();
      return;
    }
    simt::Device& dev = fleet_.device(route.device);
    Replica& rep = *replica_on(entry, route.device);
    const simt::StreamId stream = route.stream;
    const double ready = route.ready_us;

    // Pre-dispatch deadline check, as in the single-query path: members whose
    // earliest slot already misses their deadline drop out of the launch.
    for (auto it = live.begin(); it != live.end();) {
      const PendingQuery& q = batch[*it];
      if (q.req.deadline_us > 0 && ready > q.submit_us + q.req.deadline_us) {
        QueryOutcome& out = outs[*it];
        out.status = adaptive::Status::timed_out;
        out.code = adaptive::ErrorCode::deadline_exceeded;
        out.device = route.device;
        out.stream = stream;
        out.start_us = ready;
        bump("svc.timeout");
        resolved[*it] = 1;
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    if (live.empty()) {
      for (QueryOutcome& out : outs) done_.push_back(std::move(out));
      return;
    }
    bump_route(route.device);
    if (route.failover) bump("svc.failover");

    // Dedup against the in-flight set: each distinct source is fused once;
    // duplicate members collapse onto the first occurrence (their slot
    // leader) and are answered by the same launch. With collapsing disabled
    // every member keeps its own slot (run_bfs_multi permits duplicate
    // sources), reproducing the un-deduped baseline.
    std::vector<graph::NodeId> sources;       // distinct, first-seen order
    std::vector<std::uint32_t> slot(live.size(), 0);
    sources.reserve(live.size());
    for (std::size_t li = 0; li < live.size(); ++li) {
      const graph::NodeId s = batch[live[li]].req.source;
      std::uint32_t idx = static_cast<std::uint32_t>(sources.size());
      if (opts_.collapse) {
        idx = 0;
        while (idx < sources.size() && sources[idx] != s) ++idx;
      }
      if (idx == sources.size()) sources.push_back(s);
      slot[li] = idx;
    }

    const PendingQuery& lead = batch[live.front()];
    gg::GpuBfsMultiResult mr;
    std::uint64_t mark = dev.mem_mark();
    try {
      const bool resident = rep.res.uploaded();
      ensure_uploaded(rep, g, stream);
      mark = dev.mem_mark();
      exec::Recording* rec = take_recorded(lead.id, /*batch=*/true, sources,
                                           entry, rep, resident);
      if (rec != nullptr && exec::commit(dev, stream, rep.res, g, *rec)) {
        ++recording_stats_.committed;
        mr = std::move(rec->levels);
      } else {
        if (rec != nullptr) ++recording_stats_.refused;
        mr = run_inline(rep, [&] {
          return exec::run_bfs_batch(dev, rep.res, g, sources,
                                     lead.req.policy, stream);
        });
      }
    } catch (const simt::DeviceFault& f) {
      // The re-upload or the fused launch died: unbatch, so the retry/
      // failover/degradation policy applies per query.
      dev.mem_reclaim(mark);
      bump("svc.fault");
      bump(std::string("svc.fault.") + simt::fault_kind_name(f.kind()));
      bump("svc.batch_aborted");
      unbatch();
      return;
    }

    // Gather each distinct source's result once: query slot s's level of
    // node v lives at levels[v*nk + s].
    const std::uint32_t nk = mr.num_sources;
    const std::size_t n = g.num_nodes();
    std::vector<adaptive::BfsResult> uniq(nk);
    for (std::uint32_t s = 0; s < nk; ++s) {
      uniq[s].level.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        uniq[s].level[v] = mr.levels[v * nk + s];
      }
      uniq[s].metrics = mr.metrics;  // shared batch metrics, one copy each
    }
    // The interleaved copy is no longer needed; drop it before the cache
    // copies below.
    std::vector<std::uint32_t>().swap(mr.levels);

    // Slot bookkeeping: the first member of each slot is its leader (cache
    // key owner); later members are collapsed followers.
    std::vector<QueryId> slot_leader(nk, 0);
    std::vector<std::uint32_t> slot_uses(nk, 0);
    for (std::size_t li = 0; li < live.size(); ++li) {
      if (slot_uses[slot[li]]++ == 0) slot_leader[slot[li]] = batch[live[li]].id;
    }
    // Every distinct source's payload is complete and exact: cache it under
    // its slot leader's key, ready when the launch is, before scattering
    // (post-deadline drops below do not affect cacheability).
    const double finished = dev.stream_ready_us(stream);
    for (std::size_t li = 0; li < live.size(); ++li) {
      if (slot_leader[slot[li]] == batch[live[li]].id) {
        store_result(batch[live[li]], Payload(uniq[slot[li]]), finished);
      }
    }

    for (std::size_t li = 0; li < live.size(); ++li) {
      const PendingQuery& q = batch[live[li]];
      QueryOutcome& out = outs[live[li]];
      const std::uint32_t s = slot[li];
      // Last member of a slot takes the level vector by move.
      if (--slot_uses[s] == 0) {
        out.payload = std::move(uniq[s]);
      } else {
        out.payload = uniq[s];
      }
      out.batch_size = nk;
      out.failover = route.failover;
      finish_outcome(out, route.device, stream, ready);
      if (slot_leader[s] != q.id) {
        out.collapsed = true;
        out.collapsed_into = slot_leader[s];
        bump("svc.collapse");
        publish_service_event("collapse", q.req, q.id, slot_leader[s],
                              payload_bytes(out.payload), out.finish_us);
      }
      check_deadline(q, out);
    }
    bump("svc.batches");
    bump("svc.batched", static_cast<double>(live.size()));
  }

  for (QueryOutcome& out : outs) done_.push_back(std::move(out));
}

}  // namespace svc
