// bench_suite — one workload of the benchmark suite, in its own process.
//
//   bench_suite --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//               [--sim-threads T] [--check] [--out-dir DIR]
//   bench_suite --list
//
// Untraced (--trace 0), it repeats the workload max(3, S / 3) times, each on
// a fresh service, and reports the end-to-end metrics on both clocks: host
// set-up time and throughput (each set-up phase and each wave at its fastest
// repetition, see HostClock), modeled throughput and latency (deterministic),
// and peak RSS. Traced (--trace 1), it runs the same untraced repetitions,
// then one repetition with spans, the in-memory trace sink, a simt::Profiler
// per device and the counter registry attached, and reports the per-layer
// metrics. Spans are recorded only in this file, around its calls into each
// layer's public functions.
//
// Every metric prints as "<workload> <metric> <value> <unit>"; the last line
// of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
// Repetition 0 and the traced repetition check every answer against the CPU
// oracles. The process exits non-zero when an answer is wrong, when an op
// fell back to the CPU (degraded), or when the modeled results differ
// between repetitions, or between the traced and the untraced run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/cli.h"
#include "service/graph_service.h"
#include "simt/exec_pool.h"
#include "simt/profiler.h"
#include "trace/counters.h"
#include "trace/json_writer.h"
#include "trace/trace_sink.h"
#include "workloads.h"

namespace suite {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "bench_suite: %s\n", msg.c_str());
  std::exit(1);
}

// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- spans ------------------------------------------------------------------

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;         // index into the span list; -1 for a root
  std::int64_t op;    // op index within the workload; -1 when not op-scoped
};

class Spans {
 public:
  int open(const char* name, std::int64_t op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, seconds_since(epoch_), 0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
    stack_.pop_back();
  }
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (name == s.name) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }
  double total(std::string_view name) const {
    double sum = 0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Records a span when `spans` is set; costs one branch otherwise.
class Scoped {
 public:
  Scoped(Spans* spans, const char* name, std::int64_t op = -1)
      : spans_(spans), id_(spans ? spans->open(name, op) : -1) {}
  ~Scoped() {
    if (spans_) spans_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans* spans_;
  int id_;
};

// ---- traced-run collectors --------------------------------------------------

// Tallies the device iterations of the measured phase by the variant that
// ran them (direction, layout and work-set representation).
class IterationTally : public trace::TraceSink {
 public:
  void iteration(const trace::IterationEvent& ev) override {
    if (ev.on_cpu) return;
    const auto has = [&ev](const char* part) {
      return ev.variant.find(part) != std::string::npos;
    };
    ++iterations;
    pull += has("_PULL");
    nonplain += has("_REL") || has("_BIN");
    queue += has("_QU");
  }
  std::uint64_t iterations = 0, pull = 0, nonplain = 0, queue = 0;
};

// Everything the traced repetition records beyond the untraced one.
struct LayerData {
  Spans spans;
  std::map<std::string, double> counters;
  simt::Profiler::Entry kernels;  // time split, summed over kernels and devices
  IterationTally tally;
};

// Attaches the sink, a Profiler per device and the counter registry for the
// measured phase of a traced repetition, and harvests them at the end.
class LayerProbe {
 public:
  LayerProbe(LayerData* data, simt::Fleet& fleet) : data_(data) {
    if (!data_) return;
    sink_ = static_cast<IterationTally*>(
        trace::Tracer::instance().attach(std::make_unique<IterationTally>()));
    auto& reg = trace::CounterRegistry::instance();
    reg.reset();
    reg.set_enabled(true);
    for (simt::DeviceIndex d = 0; d < fleet.size(); ++d) {
      profilers_.push_back(std::make_unique<simt::Profiler>(fleet.device(d)));
    }
  }
  void finish(std::uint32_t devices) {
    if (!data_) return;
    auto& reg = trace::CounterRegistry::instance();
    for (const char* name :
         {"svc.mutate.bytes", "svc.mutate.rebuild", "rt.decisions",
          "rt.switches", "engine.traversals", "engine.iterations",
          "engine.edges_processed"}) {
      data_->counters[name] = reg.counter_value(name);
    }
    for (std::uint32_t d = 0; d < devices; ++d) {
      const std::string name = "svc.route.dev" + std::to_string(d);
      data_->counters[name] = reg.counter_value(name);
    }
    reg.set_enabled(false);
    data_->tally = *sink_;
    trace::Tracer::instance().clear();
    for (const auto& prof : profilers_) {
      for (const auto& [name, e] : prof->entries()) {
        data_->kernels.sm_time_us += e.sm_time_us;
        data_->kernels.bw_time_us += e.bw_time_us;
        data_->kernels.atomic_time_us += e.atomic_time_us;
      }
    }
    profilers_.clear();
  }

 private:
  LayerData* data_;
  IterationTally* sink_ = nullptr;
  std::vector<std::unique_ptr<simt::Profiler>> profilers_;
};

// ---- one repetition ---------------------------------------------------------

struct OpRecord {
  bool ok = false;
  bool mutation = false;
  bool cached = false;
  bool collapsed = false;
  bool degraded = false;
  std::uint32_t batch = 1;
  double latency_us = 0;  // finish - submit (modeled)
  double wait_us = 0;     // start - submit (modeled)
  double exec_us = 0;     // finish - start (modeled)
};

struct Rep {
  // Host seconds: set-up in two phases (construction through registration,
  // then the warm-up), and the measured phase's submits, drains and calls,
  // in total and per wave.
  double register_s = 0;
  double warmup_s = 0;
  double host_s = 0;
  std::vector<double> wave_s;
  double verify_s = 0;    // oracle checks (host, repetition 0 only)
  double modeled_us = 0;  // modeled makespan of the measured phase
  std::vector<OpRecord> ops;
  std::size_t not_ok = 0;
  std::size_t wrong = 0;     // ok, but differs from the oracle
  std::size_t degraded = 0;  // ok, but answered by the CPU fallback
  std::uint64_t checksum = 0;
  simt::DeviceStats dev;  // measured phase, summed over the fleet
  std::uint64_t delta_kept = 0, delta_dropped = 0;
};

simt::DeviceStats fleet_stats(const simt::Fleet& fleet) {
  simt::DeviceStats sum;
  for (simt::DeviceIndex d = 0; d < fleet.size(); ++d) {
    const simt::DeviceStats& s = fleet.device(d).stats();
    sum.kernels_launched += s.kernels_launched;
    sum.kernel_time_us += s.kernel_time_us;
    sum.transfer_time_us += s.transfer_time_us;
    sum.transactions += s.transactions;
    sum.atomics += s.atomics;
    sum.lane_work += s.lane_work;
    sum.lockstep_work += s.lockstep_work;
    sum.warps_executed += s.warps_executed;
    sum.bytes_h2d += s.bytes_h2d;
    sum.bytes_d2h += s.bytes_d2h;
  }
  return sum;
}

// Zeroes every device's counters, so fleet_stats() then covers what follows.
void reset_stats(simt::Fleet& fleet) {
  for (simt::DeviceIndex d = 0; d < fleet.size(); ++d) fleet.device(d).reset_stats();
}

// Every workload runs the fully adaptive policy, so the direction and layout
// controllers are live wherever the graph gives them a reason to switch.
adaptive::Policy workload_policy() {
  return adaptive::Policy::adapt()
      .with_direction(gg::Direction::adaptive)
      .with_representation(gg::Representation::adaptive);
}

svc::Algo to_algo(OpKind k) {
  switch (k) {
    case OpKind::sssp: return svc::Algo::sssp;
    case OpKind::cc: return svc::Algo::cc;
    case OpKind::pagerank: return svc::Algo::pagerank;
    default: return svc::Algo::bfs;
  }
}

// The read kinds a workload's mix uses, for the warm-up.
std::vector<OpKind> mix_kinds(const Mix& mix) {
  std::vector<OpKind> kinds;
  if (mix.bfs > 0) kinds.push_back(OpKind::bfs);
  if (mix.sssp > 0) kinds.push_back(OpKind::sssp);
  if (mix.cc > 0) kinds.push_back(OpKind::cc);
  if (mix.pagerank > 0) kinds.push_back(OpKind::pagerank);
  return kinds;
}

// Books op `i`'s outcome into the repetition; checks it when verifying.
void record(Rep& rep, std::size_t i, const Op& op, OpRecord rec,
            const svc::Payload& payload, Verifier* verifier) {
  rep.not_ok += !rec.ok;
  rep.degraded += rec.degraded;
  if (rec.ok) rep.checksum += payload_digest(i, payload);
  if (verifier) {
    const auto t = Clock::now();
    if (!verifier->check(op, payload) && rec.ok) ++rep.wrong;
    rep.verify_s += seconds_since(t);
  }
  rep.ops.push_back(rec);
}

// Closed loop on GraphService: K clients each submit one op, then wait for
// the drain that answers it; the next wave starts after the drain returns.
Rep run_service(const WorkloadSpec& w, const Inputs& in, LayerData* layers,
                Verifier* verifier) {
  Spans* spans = layers ? &layers->spans : nullptr;
  const adaptive::Policy policy = workload_policy();
  Rep rep;
  graph::Csr csr = in.csr;
  const auto t0 = Clock::now();
  svc::ServiceOptions opts;
  opts.queue_capacity = 1 << 20;
  if (!w.cache) {
    opts.cache_bytes = 0;
    opts.collapse = false;
  }
  svc::GraphService service(opts, simt::ClusterSpec::homogeneous(w.devices));
  std::optional<adaptive::Graph> g;
  {
    Scoped s(spans, "graph.from_csr");
    g.emplace(adaptive::Graph::from_csr(std::move(csr)));
  }
  svc::GraphId gid = 0;
  {
    Scoped s(spans, "service.add_graph");
    gid = service.add_graph(std::move(*g));
  }
  rep.register_s = seconds_since(t0);
  const auto t1 = Clock::now();
  auto request = [&](const Op& op) {
    svc::QueryRequest req;
    req.algo = to_algo(op.kind);
    req.graph = gid;
    req.source = op.source;
    req.policy = policy;
    return req;
  };
  {
    Scoped s(spans, "service.warmup");
    const graph::NodeId hub = graph::suggest_source(service.graph(gid).csr());
    for (const OpKind k : mix_kinds(w.mix)) service.submit(request({k, hub, {}}));
    for (const auto& out : service.drain()) {
      if (!out.ok()) die("warm-up query failed: " + out.error_message());
    }
  }
  rep.warmup_s = seconds_since(t1);

  LayerProbe probe(layers, service.fleet());
  reset_stats(service.fleet());
  const svc::CacheStats cache0 = service.result_cache().stats();
  const double m0 = service.makespan_us();
  for (std::size_t begin = 0; begin < in.ops.size(); begin += w.clients) {
    const std::size_t end = std::min(in.ops.size(), begin + w.clients);
    Scoped wave(spans, "bench.wave");
    const auto t = Clock::now();
    std::vector<std::optional<svc::QueryId>> ids;
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = in.ops[i];
      if (op.kind == OpKind::mutation) {
        Scoped s(spans, "service.submit_mutation", static_cast<std::int64_t>(i));
        ids.push_back(service.submit_mutation(gid, op.delta));
      } else {
        Scoped s(spans, "service.submit", static_cast<std::int64_t>(i));
        ids.push_back(service.submit(request(op)));
      }
    }
    std::vector<svc::QueryOutcome> outs;
    {
      Scoped s(spans, "service.drain");
      outs = service.drain();
    }
    rep.wave_s.push_back(seconds_since(t));
    rep.host_s += rep.wave_s.back();

    Scoped v(spans, "bench.verify");
    std::map<svc::QueryId, const svc::QueryOutcome*> by_id;
    for (const auto& out : outs) by_id[out.id] = &out;
    for (std::size_t i = begin; i < end; ++i) {
      const svc::QueryOutcome* out =
          ids[i - begin] ? by_id[*ids[i - begin]] : nullptr;
      OpRecord rec;
      rec.mutation = in.ops[i].kind == OpKind::mutation;
      if (out) {
        rec.ok = out->ok();
        rec.cached = out->cached;
        rec.collapsed = out->collapsed;
        rec.degraded = out->degraded;
        rec.batch = out->batch_size;
        rec.latency_us = out->finish_us - out->submit_us;
        rec.wait_us = std::max(0.0, out->start_us - out->submit_us);
        rec.exec_us = out->finish_us - std::max(out->start_us, out->submit_us);
      }
      static const svc::Payload kNone;
      record(rep, i, in.ops[i], rec, out ? out->payload : kNone, verifier);
    }
  }
  rep.modeled_us = service.makespan_us() - m0;
  rep.dev = fleet_stats(service.fleet());
  const svc::CacheStats& cache1 = service.result_cache().stats();
  rep.delta_kept = cache1.delta_kept - cache0.delta_kept;
  rep.delta_dropped = cache1.delta_dropped - cache0.delta_dropped;
  probe.finish(w.devices);
  return rep;
}

// One client on adaptive::Session: each call returns its answer, so every
// op is its own wave and there is no queue.
Rep run_api(const WorkloadSpec& w, const Inputs& in, LayerData* layers,
            Verifier* verifier) {
  Spans* spans = layers ? &layers->spans : nullptr;
  const adaptive::Policy policy = workload_policy();
  Rep rep;
  graph::Csr csr = in.csr;
  const auto t0 = Clock::now();
  adaptive::Session session(simt::ClusterSpec::homogeneous(w.devices));
  std::optional<adaptive::Graph> g;
  {
    Scoped s(spans, "graph.from_csr");
    g.emplace(adaptive::Graph::from_csr(std::move(csr)));
  }
  adaptive::GraphId id = 0;
  {
    Scoped s(spans, "api.register_graph");
    id = session.register_graph(*g);
  }
  rep.register_s = seconds_since(t0);
  const auto t1 = Clock::now();
  // A call's modeled latency is its traversal time: the session has no queue.
  auto call = [&](const Op& op, OpRecord& rec) -> svc::Payload {
    auto book = [&rec](const auto& r) {
      rec.ok = r.ok();
      rec.degraded = r.degraded;
      rec.latency_us = rec.exec_us = r.metrics.total_us;
    };
    if (op.kind == OpKind::sssp) {
      adaptive::SsspResult r = session.sssp(id, op.source, policy);
      book(r);
      return r;
    }
    adaptive::BfsResult r = session.bfs(id, op.source, policy);
    book(r);
    return r;
  };
  {
    Scoped s(spans, "api.warmup");
    for (const OpKind k : mix_kinds(w.mix)) {
      OpRecord rec;
      call({k, g->default_source(), {}}, rec);
      if (!rec.ok) die("warm-up call failed");
    }
  }
  rep.warmup_s = seconds_since(t1);

  LayerProbe probe(layers, session.fleet());
  reset_stats(session.fleet());
  const double m0 = session.fleet().makespan_us();
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    Scoped wave(spans, "bench.wave");
    const auto t = Clock::now();
    OpRecord rec;
    svc::Payload payload;
    {
      Scoped s(spans, "api.call", static_cast<std::int64_t>(i));
      payload = call(in.ops[i], rec);
    }
    rep.wave_s.push_back(seconds_since(t));
    rep.host_s += rep.wave_s.back();

    Scoped v(spans, "bench.verify");
    record(rep, i, in.ops[i], rec, payload, verifier);
  }
  rep.modeled_us = session.fleet().makespan_us() - m0;
  rep.dev = fleet_stats(session.fleet());
  probe.finish(w.devices);
  return rep;
}

Rep run_rep(const WorkloadSpec& w, const Inputs& in, LayerData* layers,
            Verifier* verifier) {
  return w.front == Front::service ? run_service(w, in, layers, verifier)
                                   : run_api(w, in, layers, verifier);
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<double> latencies(const Rep& rep) {
  std::vector<double> v;
  for (const auto& r : rep.ops) {
    if (r.ok) v.push_back(r.latency_us);
  }
  return v;
}

// The modeled results that must repeat exactly: makespan, every latency, the
// payload checksum, and which ops failed or fell back to the CPU.
bool same_modeled(const Rep& a, const Rep& b) {
  return a.modeled_us == b.modeled_us && a.checksum == b.checksum &&
         a.not_ok == b.not_ok && a.degraded == b.degraded &&
         latencies(a) == latencies(b);
}

// The process's peak resident set, VmHWM. getrusage's ru_maxrss is not used:
// Linux carries the pre-exec address space's peak into it, so a process
// spawned by vfork (as Python's subprocess does) reports its parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  die("no VmHWM in /proc/self/status");
}

// Host-clock estimates over the untraced repetitions. Every repetition runs
// the same set-up phases and the same waves, so each segment's fastest
// repetition is its cost on an uncontended CPU. On the shared 4-vCPU KVM
// guest this suite was sized on, each vCPU flips between two speeds about
// 1.45x apart every few seconds; across ten runs on ten seeds, the sum of
// per-segment minima varied 4-11 % (IQR over median) where the median
// repetition varied 8-21 %. What remains is slower or faster spells that
// last a minute or more, which move every repetition of a run alike.
struct HostClock {
  double setup_s = 0;     // registration + warm-up, each at its fastest
  double host_s = 0;      // measured phase: every wave at its fastest
  double median_s = 0;    // the median repetition's measured phase
  double rep_spread = 0;  // (max - min) / min of the repetitions' phases
  std::vector<double> rep_host_s, rep_setup_s;

  explicit HostClock(const std::vector<Rep>& reps) {
    auto fastest = [&reps](auto segment) {
      double best = segment(reps.front());
      for (const Rep& r : reps) best = std::min(best, segment(r));
      return best;
    };
    setup_s = fastest([](const Rep& r) { return r.register_s; }) +
              fastest([](const Rep& r) { return r.warmup_s; });
    for (std::size_t w = 0; w < reps.front().wave_s.size(); ++w) {
      host_s += fastest([w](const Rep& r) { return r.wave_s[w]; });
    }
    for (const Rep& r : reps) {
      rep_host_s.push_back(r.host_s);
      rep_setup_s.push_back(r.register_s + r.warmup_s);
    }
    median_s = median(rep_host_s);
    const auto [lo, hi] = std::minmax_element(rep_host_s.begin(), rep_host_s.end());
    rep_spread = (*hi - *lo) / *lo;
  }
};

std::vector<Metric> end_to_end(const Rep& r0, const HostClock& hc) {
  const auto ops = static_cast<double>(r0.ops.size());
  const std::vector<double> lat = latencies(r0);
  return {
      {"setup_s", hc.setup_s, "s"},
      {"host_qps", ops / hc.host_s, "ops/s"},
      {"modeled_qps", ops / (r0.modeled_us / 1e6), "ops/s"},
      {"modeled_p50_ms", percentile(lat, 0.5) / 1000.0, "ms"},
      {"modeled_p90_ms", percentile(lat, 0.9) / 1000.0, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Rep& r0, const HostClock& hc, const Rep& tr,
                              const LayerData& L, std::uint32_t devices) {
  const Spans& sp = L.spans;

  std::vector<double> calls = sp.durations("service.drain");
  for (const double d : sp.durations("api.call")) calls.push_back(d);
  for (double& d : calls) d *= 1000.0;

  double reads = 0, cached = 0, collapsed = 0, batched = 0, batch_sum = 0;
  double wait_sum = 0, lat_sum = 0;
  std::vector<double> exec, read_lat, mut_lat;
  for (const auto& r : tr.ops) {
    if (!r.ok) continue;
    wait_sum += r.wait_us;
    lat_sum += r.latency_us;
    if (r.mutation) {
      mut_lat.push_back(r.latency_us);
      continue;
    }
    ++reads;
    cached += r.cached;
    collapsed += r.collapsed;
    if (r.batch > 1) {
      ++batched;
      batch_sum += r.batch;
    }
    exec.push_back(r.exec_us / 1000.0);
    read_lat.push_back(r.latency_us);
  }

  double route_max = 0, route_sum = 0;
  for (std::uint32_t d = 0; d < devices; ++d) {
    const double n = L.counters.at("svc.route.dev" + std::to_string(d));
    route_max = std::max(route_max, n);
    route_sum += n;
  }
  const double route_mean = route_sum / devices;

  const auto& c = L.counters;
  const auto& t = L.tally;
  const auto iters = static_cast<double>(t.iterations);
  const simt::DeviceStats& dev = tr.dev;
  return {
      {"graph.from_csr_s", sp.total("graph.from_csr"), "s"},
      {"front.register_s", sp.total("service.add_graph") + sp.total("api.register_graph"), "s"},
      {"front.warmup_s", sp.total("service.warmup") + sp.total("api.warmup"), "s"},
      {"front.exec_host_s", sp.total("service.drain") + sp.total("api.call"), "s"},
      {"front.call_host_p50_ms", percentile(calls, 0.5), "ms"},
      {"front.call_host_p90_ms", percentile(calls, 0.9), "ms"},
      {"front.exec_p50_ms", percentile(exec, 0.5), "ms"},
      {"front.exec_p90_ms", percentile(exec, 0.9), "ms"},
      {"service.submit_host_frac",
       ratio(sp.total("service.submit") + sp.total("service.submit_mutation"), tr.host_s),
       "ratio"},
      {"service.queue_wait_share", ratio(wait_sum, lat_sum), "ratio"},
      {"service.cache_hit_ratio", ratio(cached, reads), "ratio"},
      {"service.collapse_frac", ratio(collapsed, reads), "ratio"},
      {"service.batched_frac", ratio(batched, reads), "ratio"},
      {"service.batch_size_mean", ratio(batch_sum, batched), "count"},
      {"service.route_skew", ratio(route_max, route_mean), "ratio"},
      {"service.degraded_frac",
       ratio(static_cast<double>(tr.degraded), static_cast<double>(tr.ops.size())), "ratio"},
      {"service.mutation_latency_ratio",
       ratio(percentile(mut_lat, 0.5), percentile(read_lat, 0.5)), "ratio"},
      {"service.mutate_bytes", c.at("svc.mutate.bytes"), "bytes"},
      {"service.mutate_rebuilds", c.at("svc.mutate.rebuild"), "count"},
      {"service.delta_keep_ratio",
       ratio(static_cast<double>(tr.delta_kept),
             static_cast<double>(tr.delta_kept + tr.delta_dropped)),
       "ratio"},
      {"runtime.decisions", c.at("rt.decisions"), "count"},
      {"runtime.switches", c.at("rt.switches"), "count"},
      {"runtime.pull_frac", ratio(static_cast<double>(t.pull), iters), "ratio"},
      {"runtime.nonplain_rep_frac", ratio(static_cast<double>(t.nonplain), iters), "ratio"},
      {"runtime.queue_variant_frac", ratio(static_cast<double>(t.queue), iters), "ratio"},
      {"gpu_graph.traversals", c.at("engine.traversals"), "count"},
      {"gpu_graph.iterations", c.at("engine.iterations"), "count"},
      {"gpu_graph.edges_processed", c.at("engine.edges_processed"), "count"},
      {"gpu_graph.edges_per_host_s", c.at("engine.edges_processed") / hc.host_s, "1/s"},
      {"simt.kernels", static_cast<double>(dev.kernels_launched), "count"},
      {"simt.kernel_ms", dev.kernel_time_us / 1000.0, "ms"},
      {"simt.kernel_sm_ms", L.kernels.sm_time_us / 1000.0, "ms"},
      {"simt.kernel_bw_ms", L.kernels.bw_time_us / 1000.0, "ms"},
      {"simt.kernel_atomic_ms", L.kernels.atomic_time_us / 1000.0, "ms"},
      {"simt.transfer_ms", dev.transfer_time_us / 1000.0, "ms"},
      {"simt.bytes_h2d", static_cast<double>(dev.bytes_h2d), "bytes"},
      {"simt.bytes_d2h", static_cast<double>(dev.bytes_d2h), "bytes"},
      {"simt.transactions", dev.transactions, "count"},
      {"simt.atomics", dev.atomics, "count"},
      {"simt.warps_executed", static_cast<double>(dev.warps_executed), "count"},
      {"simt.simd_efficiency", dev.simd_efficiency(), "ratio"},
      {"simt.warps_per_host_s", static_cast<double>(dev.warps_executed) / hc.host_s, "1/s"},
      {"simt.device_busy_frac", ratio(dev.kernel_time_us, devices * tr.modeled_us), "ratio"},
      {"bench.verify_s", r0.verify_s, "s"},
      {"bench.trace_overhead_frac", tr.host_s / hc.median_s - 1, "ratio"},
      {"bench.host_rep_spread", hc.rep_spread, "ratio"},
  };
}

void write_metrics(trace::JsonWriter& j, const std::vector<Metric>& ms) {
  j.key("metrics").begin_object();
  for (const auto& m : ms) {
    j.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  j.end_object();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << "\n";
  if (!f) die("cannot write " + path);
}

std::string spans_json(const Spans& spans) {
  trace::JsonWriter j;
  j.begin_array();
  for (const auto& s : spans.all()) {
    j.begin_object()
        .field("name", s.name)
        .field("start_s", s.start_s)
        .field("end_s", s.end_s)
        .field("parent", s.parent)
        .field("op", s.op)
        .end_object();
  }
  j.end_array();
  return j.take();
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--sim-threads T] [--check] [--out-dir DIR]\n"
               "       bench_suite --list\n"
               "workloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  const agg::Cli cli(argc, argv);
  if (cli.has("list")) {
    for (const auto& spec : workloads()) std::printf("%s\n", spec.name);
    return 0;
  }
  const WorkloadSpec* w = find_workload(cli.get("workload", ""));
  if (!w) return usage();
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 20);
  const bool traced = cli.get_int("trace", 0) != 0;
  const bool check = cli.get_bool("check", false);
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int sim_threads = static_cast<int>(cli.get_int("sim-threads", std::min(4, hw)));
  const std::string out_dir = cli.get("out-dir", "");
  if (seconds <= 0 || sim_threads < 1) return usage();
  simt::ExecPool::set_threads(sim_threads);

  const Inputs in = make_inputs(*w, seed, check ? std::min<std::size_t>(w->ops, 16) : w->ops);

  // Untraced repetitions, each on a fresh service; a traced run adds one
  // more after them. A repetition takes about 3 s of host time on the guest
  // the suite was sized on, so S seconds buy S / 3 of them. The count depends
  // on S alone, never on how fast the repetitions run: the host metrics are
  // minima over repetitions, and a minimum falls as the sample grows, so a
  // slower build must not be measured on fewer samples. Repetition 0 also
  // checks every answer against the oracles, between its timed segments.
  const auto num_reps = std::max<std::size_t>(3, static_cast<std::size_t>(seconds / 3));
  std::vector<Rep> reps;
  while (reps.size() < num_reps) {
    std::optional<Verifier> verifier;
    if (reps.empty()) verifier.emplace(in.csr);
    reps.push_back(run_rep(*w, in, nullptr, verifier ? &*verifier : nullptr));
    if (!same_modeled(reps.front(), reps.back())) {
      die("determinism guard: repetition " + std::to_string(reps.size() - 1) +
          " modeled results differ from repetition 0");
    }
  }
  const Rep& r0 = reps.front();
  if (r0.degraded > 0) {
    die(std::to_string(r0.degraded) + " ops fell back to the CPU (degraded)");
  }
  const HostClock hc(reps);
  const std::size_t attempted = r0.ops.size();
  std::size_t failed = r0.not_ok + r0.wrong;
  const std::vector<Metric> e2e = end_to_end(r0, hc);

  std::optional<LayerData> layers;
  std::vector<Metric> layer_metrics;
  if (traced) {
    layers.emplace();
    Verifier verifier(in.csr);
    const Rep tr = run_rep(*w, in, &*layers, &verifier);
    if (!same_modeled(r0, tr)) {
      die("determinism guard: traced modeled results differ from untraced");
    }
    failed += tr.wrong;
    layer_metrics = per_layer(r0, hc, tr, *layers, w->devices);
  }
  const bool correct = failed == 0;
  const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);
  // The metrics of this run's kind; the result file keeps both kinds.
  const std::vector<Metric>& metrics = traced ? layer_metrics : e2e;
  std::vector<Metric> all = e2e;
  all.insert(all.end(), layer_metrics.begin(), layer_metrics.end());

  char checksum[17];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(r0.checksum));
  const std::size_t samples = latencies(r0).size();
  for (const auto& m : all) {
    std::printf("%s %s %.9g %s\n", w->name, m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s error_rate %.9g ratio\n", w->name, error_rate);
  std::printf("%s attempted %zu ops\n", w->name, attempted);
  std::printf("%s failed %zu ops\n", w->name, failed);
  std::printf("%s degraded %zu ops\n", w->name, r0.degraded);
  std::printf("%s latency_samples %zu ops\n", w->name, samples);
  std::printf("%s repetitions %zu count\n", w->name, reps.size());
  std::printf("%s sim_threads %d count\n", w->name, sim_threads);
  std::printf("%s checksum %s hex\n", w->name, checksum);

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + w->name + "-seed" + std::to_string(seed) +
                             (traced ? "-traced" : "");
    trace::JsonWriter j;
    j.begin_object()
        .field("workload", w->name)
        .field("seed", seed)
        .field("traced", traced)
        .field("sim_threads", sim_threads)
        .field("clients", w->clients)
        .field("repetitions", static_cast<std::uint64_t>(reps.size()))
        .field("correct", correct)
        .field("attempted", static_cast<std::uint64_t>(attempted))
        .field("failed", static_cast<std::uint64_t>(failed))
        .field("error_rate", error_rate)
        .field("degraded", static_cast<std::uint64_t>(r0.degraded))
        .field("latency_samples", static_cast<std::uint64_t>(samples))
        .field("checksum", checksum);
    j.key("host_s").begin_array();
    for (const double h : hc.rep_host_s) j.value(h);
    j.end_array();
    j.key("setup_s").begin_array();
    for (const double v : hc.rep_setup_s) j.value(v);
    j.end_array();
    write_metrics(j, all);
    j.end_object();
    write_file(stem + ".json", j.str());
    if (traced) write_file(stem + "-spans.json", spans_json(layers->spans));
  }

  trace::JsonWriter j;
  j.begin_object()
      .field("correct", correct)
      .field("attempted", static_cast<std::uint64_t>(attempted))
      .field("failed", static_cast<std::uint64_t>(failed));
  write_metrics(j, metrics);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace suite

int main(int argc, char** argv) { return suite::run(argc, argv); }
