// Pins the modeled clock: runs a fixed matrix of queries in-process and
// compares every modeled number and a digest of every answer with
// tests/golden/modeled.jsonl. The matrix is
//
//  * the 54 one-shot runs of the CLI matrix (5 algorithms x 5 policies, plus
//    adaptive BFS/SSSP with adaptive direction and representation, on a
//    4,096-node RMAT and a 4,096-node road graph), through adaptive::;
//  * the paper path: rt::adaptive_{bfs,sssp,cc} with default options and
//    gg::run_{bfs,sssp} with U_T_BM and U_B_QU, on both graphs;
//  * the push shapes: gg::run_{bfs,sssp,cc,pagerank,mst,bfs_multi,
//    sssp_multi} and gg::run_frontier under each of U_{T,B,W}_{BM,QU} on the
//    RMAT graph, each line also carrying a digest of the launched kernels'
//    names;
//  * hybrid CPU phases: gg::run_{bfs,sssp} under the adaptive selector with
//    hybrid_cpu_threshold = 64, on both graphs;
//  * sampled monitoring: all eight engines under the adaptive selector at
//    monitor_interval = 4 on the RMAT graph;
//  * 16 mixed BFS/SSSP queries through a registered Session, and the same
//    queries through a one-device GraphService at concurrency 4;
//  * a fleet serve: a Zipf-skewed BFS/SSSP/CC/PageRank stream on a
//    two-device GraphService with the cache, collapsing and batching on,
//    two mutations and an evict across three drains, then one drain under a
//    transient fault plan.
//
// The Session, service and fleet blocks run at one simulator thread and
// again at four, and both runs must produce the golden lines.
//
// A change that moves a modeled number fails here. Run the test with
// AGG_UPDATE_GOLDEN=1 to rewrite the file, and explain every changed line.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/algorithms.h"
#include "api/session.h"
#include "common/prng.h"
#include "gpu_graph/multi_source_engine.h"
#include "gpu_graph/generic_engine.h"
#include "gpu_graph/mst_engine.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"
#include "runtime/decision.h"
#include "service/graph_service.h"
#include "simt/exec_pool.h"
#include "trace/json_writer.h"

namespace {

constexpr const char* kGoldenPath = AGG_GOLDEN_DIR "/modeled.jsonl";

// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_str(const char* s) {
    for (; *s != '\0'; ++s) add(static_cast<unsigned char>(*s));
    add(0);
  }
  template <typename T>
  void add_all(const std::vector<T>& xs) {
    add(xs.size());
    for (const T x : xs) {
      if constexpr (std::is_floating_point_v<T>) {
        add(std::bit_cast<std::uint64_t>(static_cast<double>(x)));
      } else {
        add(static_cast<std::uint64_t>(x));
      }
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string digest_of(const adaptive::BfsPayload& p) {
  Digest d;
  d.add_all(p.level);
  return d.hex();
}
std::string digest_of(const adaptive::SsspPayload& p) {
  Digest d;
  d.add_all(p.dist);
  return d.hex();
}
std::string digest_of(const adaptive::CcPayload& p) {
  Digest d;
  d.add_all(p.component);
  d.add(p.num_components);
  return d.hex();
}
std::string digest_of(const adaptive::PageRankPayload& p) {
  Digest d;
  d.add_all(p.rank);
  return d.hex();
}
std::string digest_of(const adaptive::MstPayload& p) {
  Digest d;
  d.add(p.total_weight);
  d.add(p.num_trees);
  d.add(p.edges_in_forest);
  return d.hex();
}

// One JSON line: the case name, the answer's digest, the traversal metrics
// and the device counters the case moved; `kernel_names`, when given, is a
// digest of the launched kernels' names in launch order.
std::string line(const std::string& name, const std::string& digest,
                 const gg::TraversalMetrics& m, const simt::DeviceStats& before,
                 const simt::DeviceStats& after,
                 const std::string& kernel_names = {}) {
  trace::JsonWriter w;
  w.begin_object();
  w.field("case", name);
  w.field("digest", digest);
  if (!kernel_names.empty()) w.field("kernel_names", kernel_names);
  w.field("total_us", m.total_us);
  w.field("kernel_us", m.kernel_us);
  w.field("transfer_us", m.transfer_us);
  w.field("kernels", m.kernels);
  w.field("iterations", static_cast<std::uint64_t>(m.iterations.size()));
  w.field("switches", m.switches);
  w.field("decisions", m.decisions);
  w.field("transactions", after.transactions - before.transactions);
  w.field("atomics", after.atomics - before.atomics);
  w.field("warps", after.warps_executed - before.warps_executed);
  w.end_object();
  return w.take();
}

struct Graphs {
  adaptive::Graph plain;     // as generated
  adaptive::Graph weighted;  // uniform weights 1..1000, as `agg sssp` assigns
};

Graphs make_graphs(graph::Csr csr) {
  Graphs gs{adaptive::Graph::from_csr(csr), adaptive::Graph::from_csr(csr)};
  gs.weighted.set_uniform_weights(1, 1000);
  return gs;
}

graph::Csr rmat_4096() {
  graph::gen::RmatParams p;
  p.scale = 12;
  p.seed = 1;
  return graph::gen::rmat(p);
}

adaptive::Policy policy_named(const std::string& name) {
  if (name == "adaptive") return adaptive::Policy::adapt();
  if (name == "do") {
    return adaptive::Policy::adapt()
        .with_direction(gg::Direction::adaptive)
        .with_representation(gg::Representation::adaptive);
  }
  return adaptive::Policy::fixed(name);
}

// The CLI matrix: one fresh device per run, as `agg <algo> --policy=...`.
void one_shot(const std::string& gname, const Graphs& gs,
              std::vector<std::string>& out) {
  const char* policies[] = {"adaptive", "U_T_BM", "U_T_BM_PULL", "U_B_QU_REL",
                            "U_T_BM_BIN"};
  const auto run = [&](const std::string& algo, const std::string& pname) {
    simt::Device dev;
    const adaptive::Policy p = policy_named(pname);
    const std::string name = "oneshot/" + gname + "/" + algo + "/" + pname;
    const simt::DeviceStats before = dev.stats();
    if (algo == "bfs") {
      const auto r = adaptive::bfs(dev, gs.plain, gs.plain.default_source(), p);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    } else if (algo == "sssp") {
      const auto r =
          adaptive::sssp(dev, gs.weighted, gs.weighted.default_source(), p);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    } else if (algo == "cc") {
      const auto r = adaptive::cc(dev, gs.plain, p);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    } else if (algo == "pagerank") {
      const auto r = adaptive::pagerank(dev, gs.plain, 0.85, p);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    } else {
      const auto r = adaptive::mst(dev, gs.weighted, p);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    }
  };
  for (const char* algo : {"bfs", "sssp", "cc", "pagerank", "mst"}) {
    for (const char* p : policies) run(algo, p);
  }
  run("bfs", "do");
  run("sssp", "do");
}

// The paper benches' entry points, called directly as they call them.
void paper_path(const std::string& gname, const Graphs& gs,
                std::vector<std::string>& out) {
  const graph::Csr& g = gs.plain.csr();
  const graph::Csr& gw = gs.weighted.csr();
  const graph::NodeId src = gs.plain.default_source();
  const auto record = [&](const std::string& what, auto&& call) {
    simt::Device dev;
    const simt::DeviceStats before = dev.stats();
    const auto r = call(dev);
    Digest d;
    if constexpr (requires { r.level; }) d.add_all(r.level);
    if constexpr (requires { r.dist; }) d.add_all(r.dist);
    if constexpr (requires { r.component; }) d.add_all(r.component);
    out.push_back(line("paper/" + gname + "/" + what, d.hex(), r.metrics,
                       before, dev.stats()));
  };
  record("rt.adaptive_bfs", [&](simt::Device& dev) {
    return rt::adaptive_bfs(dev, g, src);
  });
  record("rt.adaptive_sssp", [&](simt::Device& dev) {
    return rt::adaptive_sssp(dev, gw, src);
  });
  record("rt.adaptive_cc", [&](simt::Device& dev) {
    return rt::adaptive_cc(dev, gs.plain.symmetrized());
  });
  for (const char* v : {"U_T_BM", "U_B_QU"}) {
    const gg::Variant var = gg::parse_variant(v);
    record(std::string("gg.run_bfs/") + v, [&](simt::Device& dev) {
      return gg::run_bfs(dev, g, src, var);
    });
    record(std::string("gg.run_sssp/") + v, [&](simt::Device& dev) {
      return gg::run_sssp(dev, gw, src, var);
    });
  }
}

// Runs `call` on a fresh device and appends its line, with a digest of the
// launched kernels' names in launch order.
template <typename Call>
void record_named(const std::string& name, Call&& call,
                  std::vector<std::string>& out) {
  simt::Device dev;
  Digest names;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { names.add_str(ks.name); });
  const simt::DeviceStats before = dev.stats();
  const auto r = call(dev);
  Digest d;
  if constexpr (requires { r.level; }) d.add_all(r.level);
  if constexpr (requires { r.values; }) d.add_all(r.values);
  if constexpr (requires { r.dist; }) d.add_all(r.dist);
  if constexpr (requires { r.component; }) d.add_all(r.component);
  if constexpr (requires { r.rank; }) d.add_all(r.rank);
  if constexpr (requires { r.total_weight; }) d.add(r.total_weight);
  out.push_back(line(name, d.hex(), r.metrics, before, dev.stats(),
                     names.hex()));
}

// BFS as a user operator, as tests/generic_engine_test.cpp writes it.
struct OperatorBfs {
  std::vector<std::uint32_t> level;
  gg::TraversalMetrics metrics;
};

OperatorBfs operator_bfs(simt::Device& dev, const graph::Csr& g,
                         graph::NodeId src, const gg::VariantSelector& selector,
                         const gg::EngineOptions& opts) {
  static constexpr simt::Site kLevel{0, "op.level"};
  static constexpr simt::Site kRows{1, "op.rows"};
  static constexpr simt::Site kEdges{2, "op.edges"};
  static constexpr simt::Site kNbr{3, "op.nbr"};
  static constexpr simt::Site kOps{4, "op.ops"};
  gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, false);
  auto level = dev.alloc<std::uint32_t>(g.num_nodes, "op.level");
  dev.fill(level, graph::kInfinity);
  dev.write_scalar(level, src, 0u);
  const auto op = [&](simt::ThreadCtx& ctx, std::uint32_t id,
                      std::uint32_t offset, std::uint32_t step,
                      gg::Push& push) {
    const std::uint32_t lvl = ctx.load(level, id, kLevel);
    const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRows);
    const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRows);
    ctx.compute(4, kOps);
    for (std::uint32_t e = begin + offset; e < end; e += step) {
      const std::uint32_t t = ctx.load(dg.col_indices, e, kEdges);
      ctx.compute(3, kOps);
      if (lvl + 1 < ctx.load(level, t, kNbr)) {
        ctx.store(level, t, lvl + 1, kNbr);
        push.mark(t);
      }
    }
  };
  OperatorBfs r;
  r.metrics = gg::run_frontier(dev, g, dg, {src}, op, selector, opts).metrics;
  r.level.assign(level.host_view().begin(), level.host_view().end());
  dev.free(level);
  dg.release(dev);
  return r;
}

std::vector<graph::NodeId> batch_sources(const graph::Csr& g,
                                         graph::NodeId src) {
  std::vector<graph::NodeId> sources;
  for (std::uint32_t i = 0; i < 8; ++i) {
    sources.push_back((src + i * 509u) % g.num_nodes);
  }
  return sources;
}

// The engines' push kernels under every fixed launch shape: thread, block
// and warp mapping over a bitmap and a queue working set. The adaptive
// selector never picks warp mapping, so only these cases pin the W_ shapes.
void shapes(const Graphs& gs, std::vector<std::string>& out) {
  const graph::Csr& g = gs.plain.csr();
  const graph::Csr& gw = gs.weighted.csr();
  const graph::NodeId src = gs.plain.default_source();
  // The degree rule derives 32 threads per block on this graph, the warp
  // shapes' width; 64 keeps the block and warp grids apart.
  gg::EngineOptions opts;
  opts.block_tpb = 64;
  gg::PageRankOptions pr_opts;
  pr_opts.engine = opts;
  const std::vector<graph::NodeId> sources = batch_sources(g, src);
  // Runs `call` under each shape on a fresh device.
  const auto record = [&](const std::string& engine, auto&& call) {
    for (const char* shape :
         {"U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU", "U_W_BM", "U_W_QU"}) {
      record_named(
          "shapes/rmat/" + engine + "/" + shape,
          [&](simt::Device& dev) { return call(dev, gg::parse_variant(shape)); },
          out);
    }
  };
  record("bfs", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_bfs(dev, g, src, v, opts);
  });
  record("sssp", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_sssp(dev, gw, src, v, opts);
  });
  record("cc", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_cc(dev, gs.plain.symmetrized(), v, opts);
  });
  record("pagerank", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_pagerank(dev, g, v, pr_opts);
  });
  record("mst", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_mst(dev, gs.weighted.symmetrized(), v, opts);
  });
  record("bfs_multi", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_bfs_multi(dev, g, sources, gg::fixed_variant(v), opts);
  });
  record("sssp_multi", [&](simt::Device& dev, gg::Variant v) {
    return gg::run_sssp_multi(dev, gw, sources, gg::fixed_variant(v), opts);
  });
  record("generic", [&](simt::Device& dev, gg::Variant v) {
    return operator_bfs(dev, g, src, gg::fixed_variant(v), opts);
  });
}

// The adaptive runtime's selector for `dev`, deciding every `interval`
// iterations.
gg::VariantSelector adaptive_selector(
    const simt::Device& dev, std::uint32_t interval, const char* algo,
    gg::Direction direction = gg::Direction::push) {
  return rt::make_adaptive_selector(rt::Thresholds::for_device(dev.props()),
                                    interval, algo, direction);
}

// Hybrid CPU phases: frontiers below 64 nodes run on the host, with the
// state-array transfers at every switch, under the direction-optimizing
// selector.
void hybrid(const std::string& gname, const Graphs& gs,
            std::vector<std::string>& out) {
  const graph::Csr& g = gs.plain.csr();
  const graph::Csr& gw = gs.weighted.csr();
  const graph::NodeId src = gs.plain.default_source();
  gg::EngineOptions opts;
  opts.monitor_interval = 1;
  opts.hybrid_cpu_threshold = 64;
  record_named("hybrid/" + gname + "/bfs", [&](simt::Device& dev) {
    return gg::run_bfs(dev, g, src,
                       adaptive_selector(dev, 1, "bfs", gg::Direction::adaptive),
                       opts);
  }, out);
  record_named("hybrid/" + gname + "/sssp", [&](simt::Device& dev) {
    return gg::run_sssp(dev, gw, src,
                        adaptive_selector(dev, 1, "sssp", gg::Direction::adaptive),
                        opts);
  }, out);
}

// Sampled monitoring (paper Sec. VI.E (ii)): every engine decides only at
// every fourth iteration, with the serving path's init kernel and
// persistent runs on for every engine but MST and the generic one.
void sampled(const Graphs& gs, std::vector<std::string>& out) {
  const graph::Csr& g = gs.plain.csr();
  const graph::NodeId src = gs.plain.default_source();
  rt::AdaptiveOptions ao;
  ao.monitor_interval = 4;
  ao.direction = gg::Direction::adaptive;
  ao.persistent = true;
  rt::AdaptiveOptions push_ao = ao;
  push_ao.direction = gg::Direction::push;
  record_named("sampled/rmat/bfs", [&](simt::Device& dev) {
    return rt::adaptive_bfs(dev, g, src, ao);
  }, out);
  record_named("sampled/rmat/sssp", [&](simt::Device& dev) {
    return rt::adaptive_sssp(dev, gs.weighted.csr(), src, ao);
  }, out);
  record_named("sampled/rmat/cc", [&](simt::Device& dev) {
    return rt::adaptive_cc(dev, gs.plain.symmetrized(), ao);
  }, out);
  record_named("sampled/rmat/pagerank", [&](simt::Device& dev) {
    return rt::adaptive_pagerank(dev, g, {}, push_ao);
  }, out);
  record_named("sampled/rmat/mst", [&](simt::Device& dev) {
    return rt::adaptive_mst(dev, gs.weighted.symmetrized(), push_ao);
  }, out);
  const std::vector<graph::NodeId> sources = batch_sources(g, src);
  record_named("sampled/rmat/bfs_multi", [&](simt::Device& dev) {
    gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, false);
    auto r = rt::adaptive_bfs_multi(dev, dg, g, sources, push_ao);
    dg.release(dev);
    return r;
  }, out);
  record_named("sampled/rmat/sssp_multi", [&](simt::Device& dev) {
    const graph::Csr& gw = gs.weighted.csr();
    gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, gw, true);
    auto r = rt::adaptive_sssp_multi(dev, dg, gw, sources, push_ao);
    dg.release(dev);
    return r;
  }, out);
  record_named("sampled/rmat/generic", [&](simt::Device& dev) {
    gg::EngineOptions opts;
    opts.monitor_interval = 4;
    return operator_bfs(dev, g, src, adaptive_selector(dev, 4, "generic"),
                        opts);
  }, out);
}

struct MixedQuery {
  bool sssp;
  bool road;
  graph::NodeId source;
};

// Alternates BFS/SSSP and, every two queries, the graph.
std::vector<MixedQuery> mixed_queries(const Graphs& road, const Graphs& rmat) {
  std::vector<MixedQuery> qs;
  for (std::uint32_t i = 0; i < 16; ++i) {
    const bool on_road = (i / 2) % 2 == 0;
    const std::uint32_t n =
        (on_road ? road : rmat).plain.num_nodes();
    qs.push_back({i % 2 == 1, on_road, (i * 977u + 13u) % n});
  }
  return qs;
}

void session_path(const Graphs& road, const Graphs& rmat,
                  std::vector<std::string>& out) {
  adaptive::Session session;
  session.register_graph(road.weighted);
  session.register_graph(rmat.weighted);
  const simt::Device& dev = session.device();
  int i = 0;
  for (const MixedQuery& q : mixed_queries(road, rmat)) {
    const adaptive::Graph& g = q.road ? road.weighted : rmat.weighted;
    const std::string name = "session/" + std::to_string(i++) + "/" +
                             (q.road ? "road/" : "rmat/") +
                             (q.sssp ? "sssp" : "bfs");
    const simt::DeviceStats before = dev.stats();
    if (q.sssp) {
      const auto r = session.sssp(g, q.source);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    } else {
      const auto r = session.bfs(g, q.source);
      ASSERT_TRUE(r.ok()) << name;
      out.push_back(line(name, digest_of(r), r.metrics, before, dev.stats()));
    }
  }
}

void service_path(const Graphs& road, const Graphs& rmat,
                  std::vector<std::string>& out) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  svc::GraphService service(opts);
  const svc::GraphId road_id = service.borrow_graph(road.weighted);
  const svc::GraphId rmat_id = service.borrow_graph(rmat.weighted);
  const simt::Device& dev = service.device();
  const simt::DeviceStats before = dev.stats();
  for (const MixedQuery& q : mixed_queries(road, rmat)) {
    svc::QueryRequest req;
    req.algo = q.sssp ? svc::Algo::sssp : svc::Algo::bfs;
    req.graph = q.road ? road_id : rmat_id;
    req.source = q.source;
    ASSERT_TRUE(service.submit(req).has_value());
  }
  for (const svc::QueryOutcome& o : service.drain()) {
    ASSERT_TRUE(o.ok()) << o.error_message();
    std::string digest;
    const gg::TraversalMetrics* m = nullptr;
    if (const auto* b = std::get_if<adaptive::BfsResult>(&o.payload)) {
      digest = digest_of(*b);
      m = &b->metrics;
    } else {
      const auto& s = std::get<adaptive::SsspResult>(o.payload);
      digest = digest_of(s);
      m = &s.metrics;
    }
    trace::JsonWriter w;
    w.begin_object();
    w.field("case", "service/" + std::to_string(o.id));
    w.field("digest", digest);
    w.field("stream", o.stream);
    w.field("batch_size", o.batch_size);
    w.field("start_us", o.start_us);
    w.field("finish_us", o.finish_us);
    w.field("total_us", m->total_us);
    w.field("kernels", m->kernels);
    w.field("iterations", static_cast<std::uint64_t>(m->iterations.size()));
    w.field("decisions", m->decisions);
    w.end_object();
    out.push_back(w.take());
  }
  const simt::DeviceStats after = dev.stats();
  trace::JsonWriter w;
  w.begin_object();
  w.field("case", "service/total");
  w.field("makespan_us", service.device().makespan_us());
  w.field("kernel_us", after.kernel_time_us - before.kernel_time_us);
  w.field("transfer_us", after.transfer_time_us - before.transfer_time_us);
  w.field("kernels", after.kernels_launched - before.kernels_launched);
  w.field("transactions", after.transactions - before.transactions);
  w.field("atomics", after.atomics - before.atomics);
  w.field("warps", after.warps_executed - before.warps_executed);
  w.end_object();
  out.push_back(w.take());
}

// The modeled fields of one fleet outcome; `payload` must hold an answer.
std::string fleet_line(const svc::QueryOutcome& o) {
  trace::JsonWriter w;
  w.begin_object();
  w.field("case", "fleet/" + std::to_string(o.id));
  w.field("status", static_cast<std::uint64_t>(o.status));
  w.field("mutation", o.mutation);
  if (o.mutation || !o.ok()) {
    w.field("start_us", o.start_us);
    w.field("finish_us", o.finish_us);
    w.field("retries", o.retries);
    w.end_object();
    return w.take();
  }
  std::visit(
      [&](const auto& r) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(r)>,
                                      std::monostate>) {
          w.field("digest", digest_of(r));
        }
      },
      o.payload);
  w.field("device", o.device);
  w.field("stream", o.stream);
  w.field("batch_size", o.batch_size);
  w.field("cached", o.cached);
  w.field("collapsed", o.collapsed);
  w.field("degraded", o.degraded);
  w.field("retries", o.retries);
  w.field("start_us", o.start_us);
  w.field("finish_us", o.finish_us);
  std::visit(
      [&](const auto& r) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(r)>,
                                      std::monostate>) {
          const gg::TraversalMetrics& m = r.metrics;
          w.field("total_us", m.total_us);
          w.field("kernel_us", m.kernel_us);
          w.field("transfer_us", m.transfer_us);
          w.field("kernels", m.kernels);
          w.field("iterations",
                  static_cast<std::uint64_t>(m.iterations.size()));
          w.field("decisions", m.decisions);
        }
      },
      o.payload);
  w.end_object();
  return w.take();
}

// Per device: makespan, what the serve moved of its stats, memory in use.
void fleet_devices(const std::string& tag, const svc::GraphService& service,
                   const std::vector<simt::DeviceStats>& before,
                   std::vector<std::string>& out) {
  for (simt::DeviceIndex d = 0; d < service.num_devices(); ++d) {
    const simt::Device& dev = service.fleet().device(d);
    const simt::DeviceStats& b = before[d];
    const simt::DeviceStats& a = dev.stats();
    trace::JsonWriter w;
    w.begin_object();
    w.field("case", "fleet/" + tag + "/dev" + std::to_string(d));
    w.field("makespan_us", dev.makespan_us());
    w.field("kernels", a.kernels_launched - b.kernels_launched);
    w.field("transfers", a.transfers - b.transfers);
    w.field("kernel_us", a.kernel_time_us - b.kernel_time_us);
    w.field("transfer_us", a.transfer_time_us - b.transfer_time_us);
    w.field("host_us", a.host_time_us - b.host_time_us);
    w.field("transactions", a.transactions - b.transactions);
    w.field("atomics", a.atomics - b.atomics);
    w.field("warps", a.warps_executed - b.warps_executed);
    w.field("bytes_h2d", a.bytes_h2d - b.bytes_h2d);
    w.field("bytes_d2h", a.bytes_d2h - b.bytes_d2h);
    w.field("mem_in_use", dev.mem_in_use());
    w.end_object();
    out.push_back(w.take());
  }
}

// A seeded stream on a two-device fleet: Zipf(1.2)-repeated sources over 16
// candidates, BFS/SSSP/CC/PageRank under adaptive+DO+AREP, two mutations and
// an evict across three drains, then a small drain under a fault plan.
void fleet_path(const Graphs& rmat, std::vector<std::string>& out) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  svc::GraphService service(opts, simt::ClusterSpec::homogeneous(2));
  const svc::GraphId id = service.add_graph(rmat.weighted);
  std::vector<simt::DeviceStats> before;
  for (simt::DeviceIndex d = 0; d < service.num_devices(); ++d) {
    before.push_back(service.fleet().device(d).stats());
  }
  const std::uint32_t n = rmat.weighted.num_nodes();
  std::vector<double> weights;
  for (int r = 0; r < 16; ++r) weights.push_back(1.0 / std::pow(r + 1, 1.2));
  agg::AliasSampler zipf(weights);
  agg::Prng rng(7);
  const adaptive::Policy policy = policy_named("do");
  const auto submit = [&](int count) {
    for (int i = 0; i < count; ++i) {
      svc::QueryRequest req;
      req.graph = id;
      req.policy = policy;
      const std::uint64_t pick = rng.bounded(16);
      req.algo = pick < 9    ? svc::Algo::bfs
                 : pick < 13 ? svc::Algo::sssp
                 : pick < 15 ? svc::Algo::cc
                             : svc::Algo::pagerank;
      req.source = static_cast<graph::NodeId>(
          (zipf.sample(rng) * 977u + 13u) % n);
      ASSERT_TRUE(service.submit(req).has_value());
    }
  };
  const auto mutate = [&](std::uint32_t salt) {
    graph::EdgeDelta d;
    for (std::uint32_t k = 0; k < 8; ++k) {
      d.inserts.push_back({(salt * 131u + k * 523u) % n,
                           (salt * 71u + k * 1009u + 1u) % n});
      d.insert_weights.push_back(1 + (salt + k) % 100);
    }
    ASSERT_TRUE(service.submit_mutation(id, std::move(d)).has_value());
  };
  const auto serve = [&] {
    for (const svc::QueryOutcome& o : service.drain()) {
      out.push_back(fleet_line(o));
    }
  };
  submit(12);
  serve();
  submit(4);
  mutate(1);
  submit(6);
  serve();
  service.evict(id);
  submit(6);
  mutate(2);
  submit(4);
  serve();
  fleet_devices("serve", service, before, out);

  service.set_fault_plan_all(
      simt::FaultPlan::parse("seed=11,transfer.p=0.02,kernel.p=0.05"));
  submit(5);
  serve();
  fleet_devices("faults", service, before, out);
}

// The serving blocks at `threads` simulator threads.
std::vector<std::string> serving_lines(const Graphs& road, const Graphs& rmat,
                                       int threads) {
  simt::ExecPool::set_threads(threads);
  std::vector<std::string> lines;
  session_path(road, rmat, lines);
  service_path(road, rmat, lines);
  fleet_path(rmat, lines);
  simt::ExecPool::set_threads(0);
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(f, l);) lines.push_back(l);
  return lines;
}

std::string case_of(const std::string& json_line) {
  const auto v = trace::json_parse(json_line);
  if (!v) return "<unparseable>";
  const trace::JsonValue* c = v->find("case");
  return c ? c->string : "<no case>";
}

TEST(ModeledGolden, MatrixMatchesGoldenFile) {
  const Graphs rmat = make_graphs(rmat_4096());
  const Graphs road = make_graphs(graph::gen::road_network(4096, 1));

  std::vector<std::string> lines;
  one_shot("rmat", rmat, lines);
  one_shot("road", road, lines);
  paper_path("rmat", rmat, lines);
  paper_path("road", road, lines);
  shapes(rmat, lines);
  hybrid("rmat", rmat, lines);
  hybrid("road", road, lines);
  sampled(rmat, lines);
  const std::vector<std::string> serial = serving_lines(road, rmat, 1);
  ASSERT_FALSE(HasFatalFailure());
  lines.insert(lines.end(), serial.begin(), serial.end());
  const std::vector<std::string> pooled = serving_lines(road, rmat, 4);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(pooled, serial) << "the serving blocks differ at 4 threads";

  if (const char* u = std::getenv("AGG_UPDATE_GOLDEN"); u && *u == '1') {
    std::ofstream f(kGoldenPath, std::ios::binary | std::ios::trunc);
    for (const std::string& l : lines) f << l << '\n';
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }

  const std::vector<std::string> golden = read_lines(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing " << kGoldenPath
                               << "; generate it with AGG_UPDATE_GOLDEN=1";
  EXPECT_EQ(lines.size(), golden.size());
  std::ostringstream diff;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < std::min(lines.size(), golden.size()); ++i) {
    if (lines[i] == golden[i]) continue;
    if (++differing <= 5) {
      diff << "case " << case_of(golden[i]) << "\n  golden: " << golden[i]
           << "\n  now:    " << lines[i] << "\n";
    }
  }
  EXPECT_EQ(differing, 0u) << differing << " line(s) differ; first ones:\n"
                           << diff.str();
}

}  // namespace
