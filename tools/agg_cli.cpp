// agg — command-line driver for the adaptive GPU graph library.
//
//   agg stats    <graph>                     topology characterization
//   agg bfs      <graph> [--source=N] [--policy=adaptive|cpu|U_T_BM|...]
//   agg sssp     <graph> [--source=N] [--policy=...] [--weights=LO,HI]
//   agg cc       <graph> [--policy=...] [--no-symmetrize]
//   agg pagerank <graph> [--damping=0.85] [--policy=...] [--top=10]
//   agg mst      <graph> [--policy=...] [--no-symmetrize]
//   agg generate <kind>  --out=FILE [--nodes=N] [--seed=S]
//                kinds: road, amazon, citeseer, p2p, google, sns, rmat, er
//   agg serve    <graph> [--queries=N] [--concurrency=C] [--mix=bfs|mixed]
//                [--cache-mb=MB] [--no-cache] [--zipf=S] [--hot-fraction=F]
//                [--devices=N] [--replicate=R] [--shard=auto|off] [--mem-mb=M]
//   agg convert  <in> <out>                  between .gr / .txt / .agg
//   agg tune     <graph> [--algo=bfs|sssp]   T3 + sampling-interval sweeps
//
// Graph files are recognized by extension: .gr (DIMACS shortest path),
// .txt (SNAP edge list), .agg (binary).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "api/algorithms.h"
#include "api/graph_api.h"
#include "common/cli.h"
#include "common/prng.h"
#include "common/table.h"
#include "service/graph_service.h"
#include "graph/gen/datasets.h"
#include "graph/gen/generators.h"
#include "graph/io.h"
#include "runtime/tuner.h"
#include "simt/exec_pool.h"
#include "simt/profiler.h"
#include "trace/chrome_trace.h"
#include "trace/counters.h"
#include "trace/jsonl_trace.h"
#include "trace/trace_sink.h"

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

adaptive::Graph load_any(const std::string& path) {
  if (ends_with(path, ".gr")) return adaptive::Graph::load_dimacs(path);
  if (ends_with(path, ".txt")) return adaptive::Graph::load_snap(path);
  if (ends_with(path, ".agg")) return adaptive::Graph::load_binary(path);
  std::fprintf(stderr, "unknown graph format: %s (expect .gr/.txt/.agg)\n",
               path.c_str());
  std::exit(2);
}

void save_any(const graph::Csr& g, const std::string& path) {
  if (ends_with(path, ".gr")) {
    graph::write_dimacs(g, path);
  } else if (ends_with(path, ".txt")) {
    graph::write_snap_edgelist(g, path);
  } else if (ends_with(path, ".agg")) {
    graph::write_binary(g, path);
  } else {
    std::fprintf(stderr, "unknown output format: %s\n", path.c_str());
    std::exit(2);
  }
}

// Builds the run policy from --policy / --direction / --representation /
// --do-alpha / --do-beta.
// User-supplied strings go through the typed adaptive::parse_policy — a bad
// name prints the taxonomy error and exits 2 instead of aborting.
adaptive::Policy policy_from_cli(const agg::Cli& cli) {
  const adaptive::ParsedPolicy parsed =
      adaptive::parse_policy(cli.get("policy", "adaptive"));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", adaptive::error_code_name(parsed.code),
                 parsed.error.c_str());
    std::exit(2);
  }
  adaptive::Policy policy = parsed.policy;
  if (cli.has("direction")) {
    const std::string d = cli.get("direction", "push");
    if (d == "push") {
      policy = policy.with_direction(gg::Direction::push);
    } else if (d == "pull") {
      policy = policy.with_direction(gg::Direction::pull);
    } else if (d == "adaptive") {
      policy = policy.with_direction(gg::Direction::adaptive);
    } else {
      std::fprintf(stderr,
                   "unknown --direction '%s' (expect push|pull|adaptive)\n",
                   d.c_str());
      std::exit(2);
    }
  }
  if (cli.has("representation")) {
    const std::string r = cli.get("representation", "plain");
    if (r == "plain") {
      policy = policy.with_representation(gg::Representation::plain);
    } else if (r == "relabelled") {
      policy = policy.with_representation(gg::Representation::relabelled);
    } else if (r == "binned") {
      policy = policy.with_representation(gg::Representation::binned);
    } else if (r == "adaptive") {
      policy = policy.with_representation(gg::Representation::adaptive);
    } else {
      std::fprintf(stderr,
                   "unknown --representation '%s' (expect "
                   "plain|relabelled|binned|adaptive)\n",
                   r.c_str());
      std::exit(2);
    }
  }
  if (cli.has("do-alpha")) {
    policy.options.thresholds.do_alpha = cli.get_double("do-alpha", 0.5);
  }
  if (cli.has("do-beta")) {
    policy.options.thresholds.do_beta = cli.get_double("do-beta", 0.05);
  }
  return policy;
}

void print_metrics(const gg::TraversalMetrics& m, double cpu_wall_ms) {
  if (m.iterations.empty() && m.kernels == 0) {
    std::printf("cpu wall time: %.3f ms\n", cpu_wall_ms);
    return;
  }
  std::printf("%s\n", m.summary().c_str());
  std::printf("modeled device time %.3f ms (kernels %.3f, transfers %.3f), "
              "%llu kernel launches\n",
              m.total_ms(), m.kernel_us / 1000.0, m.transfer_us / 1000.0,
              static_cast<unsigned long long>(m.kernels));
}

int cmd_stats(const agg::Cli& cli) {
  const auto g = load_any(cli.positional()[1]);
  const auto& s = g.stats();
  std::printf("%s\n", s.summary().c_str());
  std::printf("outdegree stddev: %.2f\n%s", s.outdeg_stddev,
              s.outdeg_hist.render().c_str());
  const auto reach = graph::compute_reach(g.csr(), g.default_source());
  std::printf("from max-degree node %u: %u levels, %s nodes reachable\n",
              g.default_source(), reach.levels,
              agg::Table::fmt_int(reach.reachable_nodes).c_str());
  return 0;
}

int cmd_bfs(const agg::Cli& cli) {
  const auto g = load_any(cli.positional()[1]);
  const auto source = static_cast<graph::NodeId>(
      cli.get_int("source", g.default_source()));
  simt::Device dev;
  std::optional<simt::Profiler> prof;
  if (cli.get_bool("profile", false)) prof.emplace(dev);
  const auto out =
      adaptive::bfs(dev, g, source, policy_from_cli(cli));
  if (prof) std::printf("%s", prof->report().c_str());
  std::uint64_t reached = 0;
  std::uint32_t max_level = 0;
  for (const auto l : out.level) {
    if (l == adaptive::kUnreachable) continue;
    ++reached;
    max_level = std::max(max_level, l);
  }
  std::printf("BFS from %u: reached %s of %s nodes, %u levels\n", source,
              agg::Table::fmt_int(reached).c_str(),
              agg::Table::fmt_int(g.num_nodes()).c_str(), max_level);
  print_metrics(out.metrics, out.cpu_wall_ms);
  return 0;
}

int cmd_sssp(const agg::Cli& cli) {
  auto g = load_any(cli.positional()[1]);
  if (!g.is_weighted()) {
    const std::string range = cli.get("weights", "1,1000");
    const auto comma = range.find(',');
    const auto lo = static_cast<std::uint32_t>(std::stoul(range.substr(0, comma)));
    const auto hi = static_cast<std::uint32_t>(std::stoul(range.substr(comma + 1)));
    std::printf("(unweighted input: assigning uniform weights %u..%u)\n", lo, hi);
    g.set_uniform_weights(lo, hi);
  }
  const auto source = static_cast<graph::NodeId>(
      cli.get_int("source", g.default_source()));
  simt::Device dev;
  std::optional<simt::Profiler> prof;
  if (cli.get_bool("profile", false)) prof.emplace(dev);
  const auto out =
      adaptive::sssp(dev, g, source, policy_from_cli(cli));
  if (prof) std::printf("%s", prof->report().c_str());
  std::uint64_t reached = 0;
  std::uint64_t total = 0;
  for (const auto d : out.dist) {
    if (d == adaptive::kUnreachable) continue;
    ++reached;
    total += d;
  }
  std::printf("SSSP from %u: reached %s nodes, mean distance %.1f\n", source,
              agg::Table::fmt_int(reached).c_str(),
              reached ? static_cast<double>(total) / reached : 0.0);
  print_metrics(out.metrics, out.cpu_wall_ms);
  return 0;
}

int cmd_cc(const agg::Cli& cli) {
  const auto g = load_any(cli.positional()[1]);
  simt::Device dev;
  std::optional<simt::Profiler> prof;
  if (cli.get_bool("profile", false)) prof.emplace(dev);
  auto policy = policy_from_cli(cli);
  if (cli.get_bool("no-symmetrize", false)) {
    policy.symmetrize = adaptive::Symmetrize::never;
  }
  const auto out = adaptive::cc(dev, g, policy);
  if (prof) std::printf("%s", prof->report().c_str());
  std::printf("%s weakly-connected components\n",
              agg::Table::fmt_int(out.num_components).c_str());
  print_metrics(out.metrics, out.cpu_wall_ms);
  return 0;
}

int cmd_pagerank(const agg::Cli& cli) {
  const auto g = load_any(cli.positional()[1]);
  const double damping = cli.get_double("damping", 0.85);
  simt::Device dev;
  std::optional<simt::Profiler> prof;
  if (cli.get_bool("profile", false)) prof.emplace(dev);
  const auto out = adaptive::pagerank(dev, g, damping, policy_from_cli(cli));
  if (prof) std::printf("%s", prof->report().c_str());
  std::vector<std::uint32_t> order(g.num_nodes());
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return out.rank[a] > out.rank[b];
  });
  const auto top = static_cast<std::size_t>(cli.get_int("top", 10));
  std::printf("top %zu pages by rank (damping %.2f):\n", top, damping);
  for (std::size_t i = 0; i < std::min<std::size_t>(top, order.size()); ++i) {
    std::printf("  %2zu. node %-10u rank %.3e\n", i + 1, order[i],
                out.rank[order[i]]);
  }
  print_metrics(out.metrics, out.cpu_wall_ms);
  return 0;
}

int cmd_mst(const agg::Cli& cli) {
  auto g = load_any(cli.positional()[1]);
  if (!g.is_weighted()) {
    std::printf("(unweighted input: assigning uniform weights 1..1000)\n");
    g.set_uniform_weights(1, 1000);
  }
  simt::Device dev;
  std::optional<simt::Profiler> prof;
  if (cli.get_bool("profile", false)) prof.emplace(dev);
  auto policy = policy_from_cli(cli);
  if (cli.get_bool("no-symmetrize", false)) {
    policy.symmetrize = adaptive::Symmetrize::never;
  }
  const auto out = adaptive::mst(dev, g, policy);
  if (prof) std::printf("%s", prof->report().c_str());
  std::printf("minimum spanning forest: weight %llu, %s trees, %s edges\n",
              static_cast<unsigned long long>(out.total_weight),
              agg::Table::fmt_int(out.num_trees).c_str(),
              agg::Table::fmt_int(out.edges_in_forest).c_str());
  print_metrics(out.metrics, out.cpu_wall_ms);
  return 0;
}

int cmd_generate(const agg::Cli& cli) {
  const std::string kind = cli.positional()[1];
  const std::string out_path = cli.get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "generate requires --out=FILE\n");
    return 2;
  }
  const auto nodes = static_cast<std::uint32_t>(cli.get_int("nodes", 100000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  graph::Csr g;
  if (kind == "road") {
    g = graph::gen::road_network(nodes, seed);
  } else if (kind == "rmat") {
    graph::gen::RmatParams p;
    p.scale = 1;
    while ((1u << p.scale) < nodes) ++p.scale;
    p.seed = seed;
    g = graph::gen::rmat(p);
  } else if (kind == "er") {
    g = graph::gen::erdos_renyi(nodes, 8ull * nodes, seed);
  } else if (kind == "communities") {
    // --communities=K disjoint blocks (ring + random chords each): the
    // disconnected shape delta-aware cache invalidation is built for.
    const auto k = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(cli.get_int("communities", 16)));
    const std::uint32_t block = std::max<std::uint32_t>(2, nodes / k);
    agg::Prng prng(seed);
    std::vector<graph::Edge> edges;
    for (std::uint32_t c = 0; c < k; ++c) {
      const graph::NodeId base = c * block;
      for (graph::NodeId v = 0; v < block; ++v) {
        edges.push_back({base + v, base + (v + 1) % block});
        edges.push_back({base + (v + 1) % block, base + v});
      }
      for (std::uint32_t i = 0; i < 4 * block; ++i) {
        const auto u = static_cast<graph::NodeId>(prng.bounded(block));
        const auto v = static_cast<graph::NodeId>(prng.bounded(block));
        if (u != v) edges.push_back({base + u, base + v});
      }
    }
    g = graph::csr_from_edges(k * block, edges);
  } else {
    for (const auto id : graph::gen::all_datasets()) {
      std::string name = graph::gen::dataset_name(id);
      for (auto& c : name) c = static_cast<char>(std::tolower(c));
      if (name == kind || (kind == "road" && id == graph::gen::DatasetId::co_road)) {
        g = graph::gen::make_dataset_scaled_to(id, nodes).csr;
        break;
      }
    }
    if (g.num_nodes == 0) {
      std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
      return 2;
    }
  }
  if (cli.has("weights")) {
    graph::assign_uniform_weights(g, 1, 1000, seed);
  }
  save_any(g, out_path);
  std::printf("wrote %s: %s\n", out_path.c_str(),
              graph::GraphStats::compute(g).summary().c_str());
  return 0;
}

// Order-independent digest of a query's answer: FNV-1a over the payload's
// result values (levels/distances/components/ranks — not metrics or modeled
// wall time), summed across outcomes by the caller. Identical digests across
// `agg serve` runs prove byte-identical per-query results (the CI cache-smoke
// job compares cached vs. uncached runs this way).
std::uint64_t outcome_checksum(const svc::QueryOutcome& out) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(out.id);
  mix(static_cast<std::uint64_t>(out.status));
  struct Visitor {
    decltype(mix)& m;
    void operator()(const std::monostate&) {}
    void operator()(const adaptive::BfsResult& r) {
      for (const auto v : r.level) m(v);
    }
    void operator()(const adaptive::SsspResult& r) {
      for (const auto v : r.dist) m(v);
    }
    void operator()(const adaptive::CcResult& r) {
      for (const auto v : r.component) m(v);
      m(r.num_components);
    }
    void operator()(const adaptive::PageRankResult& r) {
      for (const double v : r.rank) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        m(bits);
      }
    }
  };
  Visitor vis{mix};
  std::visit(vis, out.payload);
  return h;
}

// Drives the serving layer with a deterministic synthetic workload: N queries
// against the loaded graph, mixing BFS (and SSSP on weighted graphs) from
// random sources, executed on `--concurrency` simulated streams. Source skew
// (--zipf / --hot-fraction) models many-users traffic concentrated on few
// keys — the regime the result cache and request collapsing are built for.
int cmd_serve(const agg::Cli& cli) {
  auto g = load_any(cli.positional()[1]);
  const auto n_queries = static_cast<std::size_t>(cli.get_int("queries", 64));
  const bool mixed = cli.get("mix", "bfs") == "mixed";
  if (mixed && !g.is_weighted()) g.set_uniform_weights(1, 1000);

  svc::ServiceOptions sopts;
  sopts.concurrency = static_cast<std::uint32_t>(cli.get_int("concurrency", 4));
  sopts.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-cap", 1 << 20));
  sopts.batch_bfs = !cli.get_bool("no-batch", false);
  const bool no_cache = cli.get_bool("no-cache", false);
  sopts.cache_bytes =
      no_cache ? 0
               : static_cast<std::size_t>(cli.get_int("cache-mb", 64)) << 20;
  sopts.collapse = !no_cache;
  sopts.resilience.max_retries =
      static_cast<std::uint32_t>(cli.get_int("retries", 2));
  sopts.resilience.degrade_to_cpu = cli.get_bool("degrade", true);

  // Fleet shape. --devices=N serves from N identical simulated devices;
  // --replicate=R caps replicas per graph (0 = all devices); --shard=off
  // disables the vertex-cut fallback for over-budget graphs; --mem-mb
  // shrinks each device's modeled memory (to force sharding in smoke tests).
  const auto n_devices =
      static_cast<std::size_t>(cli.get_int("devices", 1));
  sopts.placement.replication =
      static_cast<std::uint32_t>(cli.get_int("replicate", 0));
  const std::string shard_mode = cli.get("shard", "auto");
  if (shard_mode != "auto" && shard_mode != "off") {
    std::fprintf(stderr, "unknown --shard '%s' (expect auto|off)\n",
                 shard_mode.c_str());
    return 2;
  }
  sopts.placement.allow_shard = shard_mode == "auto";
  simt::DeviceProps props = simt::DeviceProps::fermi_c2070();
  if (cli.has("mem-mb")) {
    props.global_mem_bytes =
        static_cast<std::uint64_t>(cli.get_int("mem-mb", 6144)) << 20;
  }
  const auto cluster = simt::ClusterSpec::homogeneous(n_devices, props);
  svc::GraphService service(sopts, cluster);
  const svc::GraphId gid = service.add_graph(std::move(g));
  const auto& graph = service.graph(gid);
  std::printf("fleet: %s; placement: %s\n", cluster.summary().c_str(),
              service.placement(gid).describe().c_str());
  // Installed after add_graph: the resident upload is not subject to faults.
  // --fault-device=K installs the plan on device K only (default 0, the
  // historical single-device behavior); --fault-device=all hits every device.
  const simt::FaultPlan fault_plan =
      simt::FaultPlan::parse(cli.get("fault-plan", ""));
  if (!fault_plan.empty()) {
    const std::string fault_dev = cli.get("fault-device", "0");
    if (fault_dev == "all") {
      service.set_fault_plan_all(fault_plan);
    } else {
      service.set_fault_plan(
          fault_plan,
          static_cast<simt::DeviceIndex>(std::stoul(fault_dev)));
    }
    std::printf("fault plan: %s (device %s)\n", fault_plan.summary().c_str(),
                fault_dev.c_str());
  }

  agg::Prng prng(static_cast<std::uint64_t>(cli.get_int("seed", 7)));
  const double deadline = cli.get_double("deadline-us", 0.0);
  // Per-query policy: serve honors the same --policy / --direction /
  // --representation / --do-* flags as the one-shot commands.
  const adaptive::Policy serve_policy = policy_from_cli(cli);

  // Source skew. --zipf=s draws sources from a power-law over node ids
  // (rank 1 = node 0 hottest); --hot-fraction=f sends that fraction of
  // traffic to 8 fixed random sources; default is uniform.
  const double zipf_s = cli.get_double("zipf", 0.0);
  const double hot_fraction = cli.get_double("hot-fraction", 0.0);
  std::optional<agg::PowerLawSampler> zipf;
  if (zipf_s > 0) {
    zipf.emplace(zipf_s, 1,
                 static_cast<std::uint32_t>(graph.num_nodes()));
  }
  std::vector<graph::NodeId> hot;
  if (hot_fraction > 0) {
    for (int i = 0; i < 8; ++i) {
      hot.push_back(static_cast<graph::NodeId>(prng.bounded(graph.num_nodes())));
    }
  }
  auto pick_source = [&]() -> graph::NodeId {
    if (zipf) return static_cast<graph::NodeId>(zipf->sample(prng) - 1);
    if (!hot.empty() && prng.bernoulli(hot_fraction)) {
      return hot[prng.bounded(hot.size())];
    }
    return static_cast<graph::NodeId>(prng.bounded(graph.num_nodes()));
  };

  // Dynamic traffic (ISSUE 9): --mutate-fraction=f turns that fraction of
  // submissions into batched edge deltas of --delta-size ops (half inserts,
  // half deletes of existing arcs). Deltas are generated against a host-side
  // mirror CSR evolved in submission order, so a delete always references an
  // arc that exists when the service applies it (mutations run FIFO).
  const double mutate_fraction = cli.get_double("mutate-fraction", 0.0);
  const auto delta_size =
      static_cast<std::size_t>(cli.get_int("delta-size", 8));
  graph::Csr mirror;
  if (mutate_fraction > 0) mirror = service.graph(gid).csr();
  auto make_delta = [&]() -> graph::EdgeDelta {
    graph::EdgeDelta d;
    std::vector<std::uint64_t> chosen;  // delete positions already taken
    for (std::size_t op = 0; op < delta_size; ++op) {
      bool del = prng.bernoulli(0.5) && mirror.num_edges() > 0;
      if (del) {
        const std::uint64_t e = prng.bounded(mirror.num_edges());
        if (std::find(chosen.begin(), chosen.end(), e) != chosen.end()) {
          del = false;  // same arc twice would over-delete; insert instead
        } else {
          chosen.push_back(e);
          const auto row = static_cast<graph::NodeId>(
              std::upper_bound(mirror.row_offsets.begin(),
                               mirror.row_offsets.end(),
                               static_cast<std::uint32_t>(e)) -
              mirror.row_offsets.begin() - 1);
          d.deletes.push_back({row, mirror.col_indices[e]});
        }
      }
      if (!del) {
        const auto src =
            static_cast<graph::NodeId>(prng.bounded(mirror.num_nodes));
        const auto dst =
            static_cast<graph::NodeId>(prng.bounded(mirror.num_nodes));
        d.inserts.push_back({src, dst});
        if (mirror.has_weights()) {
          d.insert_weights.push_back(
              static_cast<std::uint32_t>(prng.bounded(1000) + 1));
        }
      }
    }
    mirror = graph::apply_delta(mirror, d);
    return d;
  };

  std::size_t accepted = 0, mutations_sent = 0;
  for (std::size_t i = 0; i < n_queries; ++i) {
    if (mutate_fraction > 0 && prng.bernoulli(mutate_fraction)) {
      if (service.submit_mutation(gid, make_delta())) {
        ++accepted;
        ++mutations_sent;
      }
      continue;
    }
    svc::QueryRequest req;
    req.graph = gid;
    req.algo = (mixed && i % 3 == 2) ? svc::Algo::sssp : svc::Algo::bfs;
    req.source = pick_source();
    req.deadline_us = deadline;
    req.policy = serve_policy;
    if (service.submit(std::move(req))) ++accepted;
  }
  const auto outcomes = service.drain();

  std::size_t ok = 0, timed_out = 0, rejected = 0, errors = 0, batched = 0;
  std::size_t degraded = 0, retried = 0, cached = 0, collapsed = 0;
  std::size_t failovers = 0, sharded = 0, mutations_done = 0, rebuilds = 0;
  std::vector<std::size_t> per_device(service.num_devices(), 0);
  double sum_latency = 0;
  std::uint64_t checksum = 0;  // order-independent: summed per-outcome digests
  for (const auto& out : outcomes) {
    degraded += out.degraded;
    retried += out.retries > 0;
    cached += out.cached;
    collapsed += out.collapsed;
    failovers += out.failover;
    sharded += out.sharded;
    mutations_done += out.mutation && out.status == adaptive::Status::ok;
    rebuilds += out.mutation && out.rebuilt;
    if (out.status == adaptive::Status::ok && !out.degraded &&
        out.device < per_device.size()) {
      ++per_device[out.device];
    }
    checksum += outcome_checksum(out);
    switch (out.status) {
      case adaptive::Status::ok:
        ++ok;
        sum_latency += out.finish_us - out.submit_us;
        if (out.batch_size > 1) ++batched;
        break;
      case adaptive::Status::timed_out: ++timed_out; break;
      case adaptive::Status::rejected: ++rejected; break;
      case adaptive::Status::error: ++errors; break;
    }
  }
  std::printf("served %zu/%zu queries on %u streams (batching %s)\n", ok,
              outcomes.size(), service.options().concurrency,
              sopts.batch_bfs ? "on" : "off");
  std::printf("  accepted %zu, rejected %zu, timed out %zu, errors %zu, "
              "answered via fused MS-BFS %zu\n",
              accepted, rejected, timed_out, errors, batched);
  if (mutations_sent > 0) {
    const auto& mg = service.graph(gid);
    std::printf("  mutations %zu applied (%zu forced a rebuild/re-place); "
                "graph now %u nodes, %llu edges, version %llu\n",
                mutations_done, rebuilds, mg.num_nodes(),
                static_cast<unsigned long long>(mg.num_edges()),
                static_cast<unsigned long long>(mg.version()));
  }
  const auto& cstats = service.result_cache().stats();
  if (sopts.cache_bytes > 0 || cached + collapsed > 0) {
    std::printf("  cache hits %zu, collapsed %zu (cache %s, %zu entries, "
                "%zu KiB; %llu lookups hit / %llu missed, %llu evicted)\n",
                cached, collapsed, no_cache ? "off" : "on",
                service.result_cache().entries(),
                service.result_cache().bytes_in_use() >> 10,
                static_cast<unsigned long long>(cstats.hits),
                static_cast<unsigned long long>(cstats.misses),
                static_cast<unsigned long long>(cstats.evictions));
    if (cstats.delta_kept + cstats.delta_dropped > 0) {
      std::printf("  delta invalidation: %llu entries kept, %llu dropped\n",
                  static_cast<unsigned long long>(cstats.delta_kept),
                  static_cast<unsigned long long>(cstats.delta_dropped));
    }
  }
  if (service.num_devices() > 1 || sharded > 0) {
    std::printf("  routed:");
    for (std::size_t d = 0; d < per_device.size(); ++d) {
      std::printf(" dev%zu=%zu%s", d, per_device[d],
                  service.device_healthy(
                      static_cast<simt::DeviceIndex>(d))
                      ? ""
                      : "(dead)");
    }
    std::printf("; failovers %zu, sharded %zu\n", failovers, sharded);
  }
  if (!fault_plan.empty()) {
    std::printf("  retried on-device %zu, degraded to CPU %zu, device %s\n",
                retried, degraded,
                service.device_healthy() ? "healthy" : "dead");
  }
  std::printf("  modeled makespan %.3f ms, mean latency %.3f ms\n",
              service.makespan_us() / 1000.0,
              ok ? sum_latency / static_cast<double>(ok) / 1000.0 : 0.0);
  std::printf("  payload checksum %016llx\n",
              static_cast<unsigned long long>(checksum));
  return 0;
}

int cmd_convert(const agg::Cli& cli) {
  const auto g = load_any(cli.positional()[1]);
  save_any(g.csr(), cli.positional()[2]);
  std::printf("converted %s -> %s\n", cli.positional()[1].c_str(),
              cli.positional()[2].c_str());
  return 0;
}

int cmd_tune(const agg::Cli& cli) {
  const auto g = load_any(cli.positional()[1]);
  const auto algo = cli.get("algo", "sssp") == "bfs" ? rt::TunedAlgorithm::bfs
                                                     : rt::TunedAlgorithm::sssp;
  const auto source = g.default_source();
  simt::Device dev;

  std::vector<double> fractions;
  for (int pct = 5; pct <= 60; pct += 5) fractions.push_back(pct / 100.0);
  const auto t3 = rt::sweep_t3(dev, g.csr(), source, fractions, algo);
  std::printf("T3 sweep (fraction of n -> ms):\n");
  for (const auto& p : t3.curve) {
    std::printf("  %4.0f%% %10.3f%s\n", p.value * 100, p.time_us / 1000.0,
                p.value == t3.best_value ? "  <- best" : "");
  }

  const std::vector<std::uint32_t> intervals{1, 2, 4, 8, 16};
  const auto rs = rt::sweep_monitor_interval(dev, g.csr(), source, intervals, algo);
  std::printf("monitoring interval sweep (R -> ms):\n");
  for (const auto& p : rs.curve) {
    std::printf("  R=%2.0f %10.3f%s\n", p.value, p.time_us / 1000.0,
                p.value == rs.best_value ? "  <- best" : "");
  }
  return 0;
}

// Attaches the sink selected by --trace-out/--trace-format and enables the
// counter registry for --metrics-out. Returns false on a bad format name.
bool setup_tracing(const agg::Cli& cli) {
  const std::string trace_out = cli.get("trace-out", "");
  if (!trace_out.empty()) {
    const std::string format = cli.get("trace-format", "chrome");
    if (format == "chrome") {
      const int lanes =
          static_cast<int>(simt::DeviceProps::fermi_c2070().num_sms);
      trace::Tracer::instance().attach(
          std::make_unique<trace::ChromeTraceSink>(trace_out, lanes));
    } else if (format == "jsonl") {
      trace::Tracer::instance().attach(
          std::make_unique<trace::JsonlDecisionSink>(trace_out));
    } else {
      std::fprintf(stderr,
                   "unknown --trace-format '%s' (expect chrome|jsonl)\n",
                   format.c_str());
      return false;
    }
  }
  if (cli.has("metrics-out")) {
    trace::CounterRegistry::instance().set_enabled(true);
  }
  return true;
}

// Flushes trace files and writes the metrics JSON after the command ran.
void finish_tracing(const agg::Cli& cli) {
  trace::Tracer::instance().clear();
  const std::string metrics_out = cli.get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream f(metrics_out, std::ios::binary | std::ios::trunc);
    if (f) {
      f << trace::CounterRegistry::instance().to_json() << '\n';
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
    }
  }
}

int dispatch(const agg::Cli& cli) {
  const std::string cmd = cli.positional()[0];
  auto need = [&](std::size_t n) {
    if (cli.positional().size() < n + 1) {
      std::fprintf(stderr, "%s: missing argument(s)\n", cmd.c_str());
      std::exit(2);
    }
  };
  if (cmd == "stats") { need(1); return cmd_stats(cli); }
  if (cmd == "bfs") { need(1); return cmd_bfs(cli); }
  if (cmd == "sssp") { need(1); return cmd_sssp(cli); }
  if (cmd == "cc") { need(1); return cmd_cc(cli); }
  if (cmd == "pagerank") { need(1); return cmd_pagerank(cli); }
  if (cmd == "mst") { need(1); return cmd_mst(cli); }
  if (cmd == "generate") { need(1); return cmd_generate(cli); }
  if (cmd == "serve") { need(1); return cmd_serve(cli); }
  if (cmd == "convert") { need(2); return cmd_convert(cli); }
  if (cmd == "tune") { need(1); return cmd_tune(cli); }
  std::fprintf(stderr, "unknown command '%s' (try --help)\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.has("sim-threads")) {
    const std::string text = cli.get("sim-threads", "");
    const std::optional<int> n = simt::parse_threads(text);
    if (!n) {
      std::fprintf(stderr,
                   "--sim-threads=%s: expected a whole number from 1 to %d\n",
                   text.c_str(), simt::kMaxThreads);
      return 2;
    }
    simt::ExecPool::set_threads(*n);
  }
  if (cli.positional().empty() || cli.has("help")) {
    std::printf(
        "agg — adaptive GPU graph algorithms (simulated device)\n\n"
        "  agg stats    <graph>\n"
        "  agg bfs      <graph> [--source=N] [--policy=adaptive|cpu|U_T_BM|...]\n"
        "               [--direction=push|pull|adaptive]\n"
        "               [--representation=plain|relabelled|binned|adaptive]\n"
        "  agg sssp     <graph> [--source=N] [--policy=...] [--weights=LO,HI]\n"
        "               [--direction=push|pull|adaptive]\n"
        "               [--representation=plain|relabelled|binned|adaptive]\n"
        "  agg cc       <graph> [--policy=...] [--no-symmetrize]\n"
        "  agg pagerank <graph> [--damping=0.85] [--policy=...] [--top=10]\n"
        "  agg mst      <graph> [--policy=...] [--no-symmetrize]\n"
        "  agg generate <kind> --out=FILE [--nodes=N] [--seed=S] [--weights]\n"
        "               kind 'communities' adds [--communities=16] disjoint\n"
        "               blocks (for delta-aware cache invalidation demos)\n"
        "  agg serve    <graph> [--queries=64] [--concurrency=4] [--mix=bfs|mixed]\n"
        "               [--no-batch] [--deadline-us=T] [--queue-cap=N] [--seed=S]\n"
        "               [--cache-mb=64] [--no-cache] [--zipf=S] [--hot-fraction=F]\n"
        "               [--fault-plan=SPEC] [--retries=2] [--degrade=true]\n"
        "               [--devices=1] [--replicate=0] [--shard=auto|off]\n"
        "               [--mem-mb=M] [--fault-device=0|K|all]\n"
        "               SPEC: seed=N,alloc.p=F,transfer.p=F,kernel.p=F,\n"
        "                     {alloc,transfer,kernel}.at=N,dead.after=N\n"
        "               --devices=N serves from N simulated devices (graphs\n"
        "               replicate across them; --shard=auto vertex-cuts a\n"
        "               graph too big for one device's memory; --mem-mb=M\n"
        "               overrides each device's modeled memory)\n"
        "               --zipf=S draws sources from a power law (exponent S);\n"
        "               --hot-fraction=F sends F of traffic to 8 hot sources;\n"
        "               --no-cache disables the result cache AND collapsing\n"
        "               --mutate-fraction=F turns F of submissions into\n"
        "               batched edge deltas of --delta-size=8 ops (half\n"
        "               inserts, half deletes), applied in admission order\n"
        "  agg convert  <in> <out>\n"
        "  agg tune     <graph> [--algo=bfs|sssp]\n\n"
        "global flags:\n"
        "  --sim-threads=N       host threads for the simulator, 1 to 512:\n"
        "                        serve's queries simulated ahead (overrides\n"
        "                        SIMT_THREADS; default: hardware\n"
        "                        concurrency; 1 = no lookahead)\n"
        "  --profile             per-kernel profile table after bfs/sssp/cc/\n"
        "                        pagerank/mst\n"
        "  --trace-out=FILE      write a trace of the run; with chrome format\n"
        "                        load the file in chrome://tracing or Perfetto\n"
        "  --trace-format=F      chrome (kernel/transfer/iteration timeline,\n"
        "                        default) | jsonl (adaptive decision log)\n"
        "  --metrics-out=FILE    write the metrics-counter registry as JSON\n"
        "  --direction=D         traversal direction for bfs/sssp/cc: push\n"
        "                        (scatter over CSR, default), pull (gather\n"
        "                        over CSC), adaptive (Beamer push<->pull\n"
        "                        controller; pairs with --policy=adaptive)\n"
        "  --do-alpha=F          push->pull flip threshold: go pull when\n"
        "                        frontier_edges > F * (unexplored_edges + n)\n"
        "                        (default 0.5)\n"
        "  --do-beta=F           pull->push flip threshold: go push when\n"
        "                        frontier_edges < F * (unexplored_edges + n)\n"
        "                        (default 0.05)\n"
        "  --representation=R    graph layout for bfs/sssp/cc: plain (CSR as\n"
        "                        given, default), relabelled (degree-sorted\n"
        "                        CSR), binned (warp-aligned degree buckets),\n"
        "                        adaptive (upload-time cost function; for BFS\n"
        "                        also amortized mid-run switching; pairs with\n"
        "                        --policy=adaptive)\n");
    return cli.has("help") ? 0 : 2;
  }
  if (!setup_tracing(cli)) return 2;
  const int rc = dispatch(cli);
  finish_tracing(cli);
  return rc;
}
