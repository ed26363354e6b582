// Persistent runs (DESIGN.md "Persistent iterations"): small-frontier U_B_QU
// push iterations of BFS, SSSP, CC, PageRank and the fused BFS and SSSP
// batches run inside one persistent kernel, and each traversal starts with
// one init kernel. These tests pin the contract: the device cost model of a
// run and of an init, answers and decisions identical to per-iteration
// launches over the conformance corpus at any simulator thread count,
// faults inside a run handled like any other kernel fault, and a trace
// that shows one kernel with its iterations in it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "api/algorithms.h"
#include "api/exec.h"
#include "conformance_corpus.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/transform.h"
#include "runtime/adaptive_engine.h"
#include "service/graph_service.h"
#include "simt/exec_pool.h"
#include "trace/chrome_trace.h"
#include "trace/json_writer.h"
#include "trace/jsonl_trace.h"
#include "trace/trace_sink.h"

namespace {

// ---- simt: the cost of a run ---------------------------------------------------

TEST(PersistentDevice, BarrierCostUsesExistingConstants) {
  const simt::DeviceProps& c2070 = simt::DeviceProps::fermi_c2070();
  const simt::TimingModel tm = simt::TimingModel::fermi_default();
  // 14 SMs x 8 resident blocks of 32 threads: 400 + 112 * 4 + 400 cycles.
  const std::uint64_t blocks =
      static_cast<std::uint64_t>(c2070.resident_blocks(32)) * c2070.num_sms;
  EXPECT_EQ(blocks, 112u);
  EXPECT_DOUBLE_EQ(simt::grid_barrier_us(c2070, tm, blocks), 1248.0 / 1150.0);
}

TEST(PersistentDevice, RunIsOneKernelOfPhasesAndBarriers) {
  simt::Device dev;
  auto buf = dev.alloc<std::uint32_t>(5000, "buf");
  dev.fill(buf, 1u);
  const simt::DeviceStats one = dev.stats();
  const double fill_us = one.kernel_time_us;
  const double phase_us = fill_us - dev.timing().launch_overhead_us;

  std::vector<simt::KernelStats> observed;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { observed.push_back(ks); });
  const double t0 = dev.now_us();
  dev.begin_persistent("test.persistent", 32);
  EXPECT_TRUE(dev.in_persistent());
  for (int i = 0; i < 3; ++i) dev.fill(buf, 2u);
  const double barrier_us =
      simt::grid_barrier_us(dev.props(), dev.timing(), 112);
  const double expect_us =
      dev.timing().launch_overhead_us + 3 * phase_us + 2 * barrier_us;
  EXPECT_NEAR(dev.now_us() - t0, expect_us, 1e-9);
  EXPECT_EQ(dev.end_persistent(), 0.0);  // default stream: placed at once
  EXPECT_FALSE(dev.in_persistent());

  ASSERT_EQ(observed.size(), 1u);
  EXPECT_STREQ(observed[0].name, "test.persistent");
  EXPECT_EQ(observed[0].blocks, 112u);
  EXPECT_EQ(dev.stats().kernels_launched, one.kernels_launched + 1);
  EXPECT_NEAR(dev.stats().kernel_time_us - one.kernel_time_us, expect_us, 1e-9);
  EXPECT_EQ(dev.stats().transactions, 4 * one.transactions);
  EXPECT_EQ(dev.stats().warps_uniform, 4 * one.warps_uniform);
  EXPECT_NEAR(dev.now_us(), t0 + expect_us, 1e-9);
}

TEST(PersistentDevice, FaultAtCommitLeavesNoRunOpen) {
  simt::Device dev;
  auto buf = dev.alloc<std::uint32_t>(64, "buf");
  dev.set_fault_plan(simt::FaultPlan::parse("kernel.at=0"));
  dev.begin_persistent("test.persistent", 32);
  dev.fill(buf, 2u);  // a phase: not a fault-injector op of its own
  EXPECT_THROW(dev.end_persistent(), simt::DeviceFault);
  EXPECT_FALSE(dev.in_persistent());
  EXPECT_EQ(dev.stats().kernels_launched, 0u);
  {
    simt::PersistentScope scope(dev, "test.persistent", 32);
    EXPECT_TRUE(dev.in_persistent());
  }  // unwound without end(): dropped unaccounted
  EXPECT_FALSE(dev.in_persistent());
  dev.fill(buf, 3u);
  EXPECT_EQ(dev.stats().kernels_launched, 1u);
}

TEST(PersistentDevice, InitIsOneKernelOfItsFills) {
  simt::Device dev;
  auto a = dev.alloc<std::uint32_t>(5000, "a");
  auto b = dev.alloc<std::uint8_t>(700, "b");
  dev.fill(a, 1u);
  dev.fill(b, std::uint8_t{0});
  const simt::DeviceStats two = dev.stats();
  const double overhead = dev.timing().launch_overhead_us;
  std::vector<simt::KernelStats> singles;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { singles.push_back(ks); });
  dev.fill(a, 1u);
  dev.fill(b, std::uint8_t{0});
  ASSERT_EQ(singles.size(), 2u);

  std::vector<simt::KernelStats> observed;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { observed.push_back(ks); });
  const double t0 = dev.now_us();
  {
    simt::InitScope init(dev, "test.init", 4);
    EXPECT_TRUE(dev.in_init());
    dev.fill(a, 1u);
    dev.seed_scalar(a, 17, 0u);  // the fill's own store at slot 17
    dev.fill(b, std::uint8_t{0});
    dev.seed_scalar(b, 3, std::uint8_t{1});
    EXPECT_TRUE(observed.empty());
    init.end();
  }
  EXPECT_FALSE(dev.in_init());
  ASSERT_EQ(observed.size(), 1u);
  const simt::KernelStats& ks = observed[0];
  EXPECT_STREQ(ks.name, "test.init");
  EXPECT_EQ(ks.blocks, singles[0].blocks + singles[1].blocks);
  EXPECT_DOUBLE_EQ(ks.bw_time_us,
                   singles[0].bw_time_us + singles[1].bw_time_us);
  EXPECT_DOUBLE_EQ(ks.sm_time_us,
                   singles[0].sm_time_us + singles[1].sm_time_us);
  EXPECT_DOUBLE_EQ(
      ks.time_us,
      std::max({ks.sm_time_us, ks.bw_time_us, ks.atomic_time_us}) + overhead);
  EXPECT_LT(ks.time_us, singles[0].time_us + singles[1].time_us);
  EXPECT_NEAR(dev.now_us() - t0, ks.time_us, 1e-9);
  const simt::DeviceStats& st = dev.stats();
  EXPECT_EQ(st.kernels_launched, 2 * two.kernels_launched + 1);
  EXPECT_EQ(st.transfers, 0u);  // the seeds are the kernel's arguments
  EXPECT_EQ(st.transactions, 3 * two.transactions);
  EXPECT_EQ(st.warps_uniform, 3 * two.warps_uniform);
  EXPECT_EQ(a.host_view()[17], 0u);
  EXPECT_EQ(a.host_view()[16], 1u);
  EXPECT_EQ(b.host_view()[3], 1u);
  // Outside an init a seed is a 4-byte transfer, as in the paper's runtime.
  dev.seed_scalar(a, 18, 0u);
  EXPECT_EQ(dev.stats().transfers, 1u);
  EXPECT_EQ(dev.stats().bytes_h2d, 4u);
}

TEST(PersistentDevice, InitAdmitsNoTransferAndFaultsAsOneKernel) {
  simt::Device dev;
  auto buf = dev.alloc<std::uint32_t>(64, "buf");
  EXPECT_DEATH(
      {
        simt::InitScope init(dev, "test.init", 4);
        dev.write_scalar(buf, 0, 1u);
      },
      "transfer inside an init kernel");
  EXPECT_DEATH(simt::InitScope(dev, "test.init", simt::kKernelParamBytes + 1),
               "exceed the parameter space");
  dev.set_fault_plan(simt::FaultPlan::parse("kernel.at=0"));
  {
    simt::InitScope init(dev, "test.init", 0);
    dev.fill(buf, 2u);  // folded: not a fault-injector op of its own
    dev.fill(buf, 3u);
    EXPECT_THROW(init.end(), simt::DeviceFault);
  }
  EXPECT_FALSE(dev.in_init());
  EXPECT_EQ(dev.stats().kernels_launched, 0u);
  {
    simt::InitScope init(dev, "test.init", 0);
    EXPECT_TRUE(dev.in_init());
  }  // unwound without end(): dropped unaccounted
  EXPECT_FALSE(dev.in_init());
  dev.fill(buf, 3u);
  EXPECT_EQ(dev.stats().kernels_launched, 1u);
}

// ---- the engines: per-iteration launches vs persistent runs ----------------

enum class Algo { bfs, sssp, cc, pagerank, msbfs, mssp };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::bfs: return "bfs";
    case Algo::sssp: return "sssp";
    case Algo::cc: return "cc";
    case Algo::pagerank: return "pagerank";
    case Algo::msbfs: return "msbfs";
    case Algo::mssp: return "mssp";
  }
  return "";
}

struct Outcome {
  std::vector<std::uint32_t> payload;  // PageRank: the ranks' bit patterns
  gg::TraversalMetrics metrics;
  simt::DeviceStats stats;
};

// One adaptive traversal of `g` (a fused BFS or SSSP batch from `sources`,
// on a resident upload) with the serving path's folding on or off.
Outcome run_adaptive(const graph::Csr& g, Algo algo, bool do_arep,
                     bool persistent,
                     std::span<const graph::NodeId> sources = {}) {
  rt::AdaptiveOptions o;
  o.persistent = persistent;
  if (do_arep) {
    o.direction = gg::Direction::adaptive;
    o.representation = gg::Representation::adaptive;
  }
  simt::Device dev;
  const graph::NodeId src = graph::suggest_source(g);
  Outcome r;
  switch (algo) {
    case Algo::bfs: {
      gg::GpuBfsResult res = rt::adaptive_bfs(dev, g, src, o);
      r.payload = std::move(res.level);
      r.metrics = std::move(res.metrics);
      break;
    }
    case Algo::sssp: {
      gg::GpuSsspResult res = rt::adaptive_sssp(dev, g, src, o);
      r.payload = std::move(res.dist);
      r.metrics = std::move(res.metrics);
      break;
    }
    case Algo::cc: {
      gg::GpuCcResult res = rt::adaptive_cc(dev, g, o);
      r.payload = std::move(res.component);
      r.metrics = std::move(res.metrics);
      break;
    }
    case Algo::pagerank: {
      gg::GpuPageRankResult res = rt::adaptive_pagerank(dev, g, {}, o);
      for (const float x : res.rank) {
        r.payload.push_back(std::bit_cast<std::uint32_t>(x));
      }
      r.metrics = std::move(res.metrics);
      break;
    }
    case Algo::msbfs:
    case Algo::mssp: {
      const bool sssp = algo == Algo::mssp;
      gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, sssp);
      gg::GpuMultiResult res =
          sssp ? rt::adaptive_sssp_multi(dev, dg, g, sources, o)
               : rt::adaptive_bfs_multi(dev, dg, g, sources, o);
      dg.release(dev);
      r.payload = std::move(res.values);
      r.metrics = std::move(res.metrics);
      break;
    }
  }
  r.stats = dev.stats();
  return r;
}

// The bytes the per-iteration runtime uploads to seed a traversal, which
// the init kernel carries as arguments instead. Every engine seeds the
// working set's 4-byte queue length. BFS and SSSP add the source's level
// (4 B) and, as their first variant's working set needs, queue[0] and the
// length again (8 B) or the source's bitmap byte. An MS-BFS batch of k
// sources adds three 4-byte words per source (its frontier and visited
// bits and its level 0), a fused SSSP batch two (its pending bit and its
// distance 0), and both one update flag per distinct source node.
std::uint64_t seed_bytes(Algo algo, const Outcome& off,
                         std::span<const graph::NodeId> sources) {
  switch (algo) {
    case Algo::bfs:
    case Algo::sssp:
      return 8 + (off.metrics.iterations.at(0).variant.repr ==
                          gg::WorksetRepr::queue
                      ? 8
                      : 1);
    case Algo::cc:
    case Algo::pagerank:
      return 4;
    case Algo::msbfs:
    case Algo::mssp: {
      std::vector<graph::NodeId> distinct(sources.begin(), sources.end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      const std::uint64_t words = algo == Algo::msbfs ? 3 : 2;
      return 4 + 4 * words * sources.size() + distinct.size();
    }
  }
  return 0;
}

void expect_same_work(const Outcome& off, const Outcome& on,
                      std::uint64_t seeds, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(off.payload, on.payload);
  ASSERT_EQ(off.metrics.iterations.size(), on.metrics.iterations.size());
  for (std::size_t i = 0; i < off.metrics.iterations.size(); ++i) {
    EXPECT_EQ(off.metrics.iterations[i].variant, on.metrics.iterations[i].variant)
        << "iteration " << i;
    EXPECT_EQ(off.metrics.iterations[i].ws_size, on.metrics.iterations[i].ws_size)
        << "iteration " << i;
  }
  EXPECT_EQ(off.metrics.decisions, on.metrics.decisions);
  EXPECT_EQ(off.metrics.switches, on.metrics.switches);
  EXPECT_EQ(off.metrics.edges_processed, on.metrics.edges_processed);
  EXPECT_EQ(off.stats.transactions, on.stats.transactions);
  EXPECT_EQ(off.stats.atomics, on.stats.atomics);
  EXPECT_EQ(off.stats.warps_executed, on.stats.warps_executed);
  EXPECT_EQ(off.stats.warps_uniform, on.stats.warps_uniform);
  // Only the seeds stop crossing PCIe: they travel as init-kernel arguments.
  EXPECT_EQ(off.stats.bytes_h2d - on.stats.bytes_h2d, seeds);
  EXPECT_LE(on.stats.kernels_launched, off.stats.kernels_launched);
  EXPECT_LE(on.stats.transfers, off.stats.transfers);
  EXPECT_LE(on.metrics.total_us, off.metrics.total_us);
}

// Batches of 1, 5 and 32 sources spread over the graph (repeats allowed on
// the small ones).
std::vector<std::vector<graph::NodeId>> batches(const graph::Csr& g) {
  std::vector<std::vector<graph::NodeId>> out;
  for (const std::uint32_t k : {1u, 5u, 32u}) {
    std::vector<graph::NodeId> b;
    for (std::uint32_t s = 0; s < k; ++s) {
      b.push_back((s * 37 + 11) % g.num_nodes);
    }
    out.push_back(std::move(b));
  }
  return out;
}

TEST(PersistentEngines, SameAnswersAndWorkOverTheConformanceCorpus) {
  std::uint64_t launches_off = 0;
  std::uint64_t launches_on = 0;
  std::uint64_t kernel_runs = 0;
  for (const auto& gc : testutil::conformance_corpus()) {
    if (gc.csr.num_nodes == 0) continue;
    graph::Csr weighted = gc.csr;
    graph::assign_uniform_weights(weighted, 1, 31, 7);
    const graph::Csr sym = graph::symmetrize(gc.csr);
    const auto check = [&](Algo algo, const graph::Csr& g, bool do_arep,
                           std::span<const graph::NodeId> sources) {
      const std::string what =
          gc.name + " " + algo_name(algo) +
          (do_arep ? " DO+AREP" : " adaptive") +
          (sources.empty() ? "" : " k=" + std::to_string(sources.size()));
      const Outcome off = run_adaptive(g, algo, do_arep, false, sources);
      const Outcome on = run_adaptive(g, algo, do_arep, true, sources);
      expect_same_work(off, on, seed_bytes(algo, off, sources), what);
      const graph::NodeId src = graph::suggest_source(g);
      if (algo == Algo::bfs) {
        EXPECT_EQ(on.payload, cpu::bfs(g, src).level) << what;
      } else if (algo == Algo::sssp) {
        EXPECT_EQ(on.payload, cpu::dijkstra(g, src).dist) << what;
      } else if (algo == Algo::cc) {
        EXPECT_EQ(on.payload, cpu::connected_components(g).component) << what;
      } else if (algo == Algo::msbfs || algo == Algo::mssp) {
        for (std::size_t s = 0; s < sources.size(); ++s) {
          const std::vector<std::uint32_t> want =
              algo == Algo::msbfs ? cpu::bfs(g, sources[s]).level
                                  : cpu::dijkstra(g, sources[s]).dist;
          for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
            ASSERT_EQ(on.payload[v * sources.size() + s], want[v])
                << what << " source " << s << " node " << v;
          }
        }
      }
      launches_off += off.stats.kernels_launched;
      launches_on += on.stats.kernels_launched;
      ++kernel_runs;
    };
    for (const bool do_arep : {false, true}) {
      check(Algo::bfs, gc.csr, do_arep, {});
      if (weighted.has_weights()) check(Algo::sssp, weighted, do_arep, {});
      check(Algo::cc, sym, do_arep, {});
    }
    check(Algo::pagerank, gc.csr, false, {});
    for (const std::vector<graph::NodeId>& b : batches(gc.csr)) {
      check(Algo::msbfs, gc.csr, false, b);
      if (weighted.has_weights()) check(Algo::mssp, weighted, false, b);
    }
  }
  EXPECT_GT(kernel_runs, 400u);
  // The corpus is small-frontier throughout: runs must actually happen.
  EXPECT_LT(launches_on * 2, launches_off);
}

TEST(PersistentEngines, RunsAreIdenticalAtAnySimulatorThreadCount) {
  const auto corpus = testutil::conformance_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const graph::Csr& g0 = corpus[i].csr;
    if (g0.num_nodes == 0) continue;
    graph::Csr weighted = g0;
    graph::assign_uniform_weights(weighted, 1, 31, 7);
    for (const bool sssp : {false, true}) {
      if (sssp && !weighted.has_weights()) continue;  // no edges
      const graph::Csr& g = sssp ? weighted : g0;
      std::vector<Outcome> runs;
      for (const int threads : {1, 4, 0}) {  // 0: the pool's default size
        simt::ExecPool::set_threads(threads);
        runs.push_back(
            run_adaptive(g, sssp ? Algo::sssp : Algo::bfs, true, true));
      }
      simt::ExecPool::set_threads(1);
      for (std::size_t k = 1; k < runs.size(); ++k) {
        SCOPED_TRACE(corpus[i].name + (sssp ? " sssp" : " bfs"));
        EXPECT_EQ(runs[0].payload, runs[k].payload);
        EXPECT_EQ(runs[0].metrics.to_json(), runs[k].metrics.to_json());
        EXPECT_EQ(runs[0].stats.kernel_time_us, runs[k].stats.kernel_time_us);
        EXPECT_EQ(runs[0].stats.transfer_time_us, runs[k].stats.transfer_time_us);
        EXPECT_EQ(runs[0].stats.transactions, runs[k].stats.transactions);
      }
    }
  }
}

TEST(PersistentEngines, HybridPhasesTakePrecedence) {
  const graph::Csr g = graph::gen::road_network(900, 3);
  rt::AdaptiveOptions o;
  o.engine.hybrid_cpu_threshold = 16;
  simt::Device off_dev;
  const gg::GpuBfsResult off = rt::adaptive_bfs(off_dev, g, 0, o);
  o.persistent = true;
  simt::Device on_dev;
  const gg::GpuBfsResult on = rt::adaptive_bfs(on_dev, g, 0, o);
  EXPECT_EQ(off.level, on.level);
  EXPECT_EQ(off.metrics.to_json(), on.metrics.to_json());
  EXPECT_EQ(off_dev.stats().kernels_launched, on_dev.stats().kernels_launched);
  std::size_t on_device = 0;
  for (const gg::IterationRecord& it : on.metrics.iterations) on_device += !it.on_cpu;
  EXPECT_GT(on_device, 1u);  // device iterations that could have been a run
  EXPECT_LT(on_device, on.metrics.iterations.size());
}

// ---- faults inside a run ---------------------------------------------------------

class FaultLog : public trace::TraceSink {
 public:
  void fault(const trace::FaultEvent& ev) override { ops.push_back(ev.op); }
  std::vector<std::string> ops;
};

// Kernel-op index, counted from a fresh fault plan, of the first persistent
// run of one BFS query on a fresh copy of `g`.
std::uint64_t first_run_kernel_index(const adaptive::Graph& g,
                                     graph::NodeId src) {
  svc::GraphService service;
  const svc::GraphId id = service.borrow_graph(g);
  std::vector<std::string> names;
  service.device().set_kernel_observer(
      [&](const simt::KernelStats& ks) { names.push_back(ks.name); });
  svc::QueryRequest q;
  q.graph = id;
  q.source = src;
  service.submit(q);
  EXPECT_TRUE(service.drain().at(0).ok());
  const auto it = std::find(names.begin(), names.end(), "bfs.persistent");
  EXPECT_NE(it, names.end());
  return static_cast<std::uint64_t>(it - names.begin());
}

TEST(PersistentFaults, ExecRunRollsBackAFaultAtTheRunsCommit) {
  const adaptive::Graph g =
      adaptive::Graph::from_csr(graph::gen::road_network(900, 2));
  const std::uint64_t k = first_run_kernel_index(g, 0);
  simt::Device dev;
  exec::Resident res;
  res.upload(dev, g);
  const std::uint64_t mark = dev.mem_in_use();
  dev.set_fault_plan(
      simt::FaultPlan::parse("kernel.at=" + std::to_string(k)));
  exec::Query q;
  q.source = 0;
  EXPECT_THROW(exec::run(dev, res, g, q), simt::DeviceFault);
  EXPECT_FALSE(dev.in_persistent());
  EXPECT_EQ(dev.mem_in_use(), mark);
  // The next query starts outside any run and answers exactly.
  const svc::Payload again = exec::run(dev, res, g, q);
  EXPECT_EQ(std::get<adaptive::BfsResult>(again).level, cpu::bfs(g.csr(), 0).level);
  EXPECT_EQ(dev.mem_in_use(), mark);
  res.release(dev);
}

TEST(PersistentFaults, ServiceRetriesOrDegradesAFaultInsideARun) {
  const adaptive::Graph g =
      adaptive::Graph::from_csr(graph::gen::road_network(900, 2));
  const std::uint64_t k = first_run_kernel_index(g, 0);
  const auto want = cpu::bfs(g.csr(), 0).level;
  for (const int max_retries : {2, 0}) {
    SCOPED_TRACE(max_retries ? "retry" : "degrade");
    trace::Tracer::instance().clear();
    auto* log = static_cast<FaultLog*>(
        trace::Tracer::instance().attach(std::make_unique<FaultLog>()));
    svc::ServiceOptions opts;
    opts.batch_bfs = false;  // two BFS traversals, not one fused batch
    opts.resilience.max_retries = max_retries;
    svc::GraphService service(opts);
    const svc::GraphId id = service.borrow_graph(g);
    const std::uint64_t mark = service.device().mem_in_use();
    service.set_fault_plan(
        simt::FaultPlan::parse("kernel.at=" + std::to_string(k)));
    svc::QueryRequest q;
    q.graph = id;
    q.source = 0;
    service.submit(q);
    q.source = 1;  // the next query, after the faulted one
    service.submit(q);
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_EQ(log->ops, std::vector<std::string>{"bfs.persistent"});
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].bfs().level, want);
    EXPECT_EQ(outcomes[0].retries, max_retries ? 1u : 0u);
    EXPECT_EQ(outcomes[0].degraded, max_retries == 0);
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_FALSE(outcomes[1].degraded);
    EXPECT_EQ(outcomes[1].bfs().level, cpu::bfs(g.csr(), 1).level);
    EXPECT_FALSE(service.device().in_persistent());
    EXPECT_EQ(service.device().mem_in_use(), mark);
    trace::Tracer::instance().clear();
  }
}

// ---- the trace ---------------------------------------------------------------------

struct TraceEvent {
  std::string name;
  double ts = 0;
  double dur = 0;
};

std::vector<TraceEvent> x_events(const std::string& chrome_json) {
  const auto doc = trace::json_parse(chrome_json);
  EXPECT_TRUE(doc.has_value());
  std::vector<TraceEvent> out;
  if (!doc) return out;
  for (const trace::JsonValue& e : doc->find("traceEvents")->items) {
    const trace::JsonValue* ph = e.find("ph");
    if (!ph || ph->string != "X") continue;
    out.push_back({e.find("name")->string, e.find("ts")->number,
                   e.find("dur")->number});
  }
  return out;
}

TEST(PersistentTrace, RoadBfsIsOnePersistentKernelWithItsIterationsInside) {
  trace::Tracer::instance().clear();
  auto* chrome = static_cast<trace::ChromeTraceSink*>(
      trace::Tracer::instance().attach(
          std::make_unique<trace::ChromeTraceSink>()));
  const adaptive::Graph g =
      adaptive::Graph::from_csr(graph::gen::road_network(4096, 1));
  simt::Device dev;
  const auto r = adaptive::bfs(dev, g, g.default_source());
  ASSERT_TRUE(r.ok());
  const std::vector<TraceEvent> events = x_events(chrome->json());
  trace::Tracer::instance().clear();

  std::vector<TraceEvent> runs;
  std::vector<TraceEvent> iterations;
  for (const TraceEvent& e : events) {
    if (e.name == "bfs.persistent") runs.push_back(e);
    if (e.name == "bfs.iteration") iterations.push_back(e);
  }
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(iterations.size(), r.metrics.iterations.size());
  ASSERT_GT(iterations.size(), 10u);
  const double begin = runs[0].ts;
  const double end = runs[0].ts + runs[0].dur;
  const double eps = 1e-6;
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i + 1));
    EXPECT_GE(iterations[i].ts, begin - eps);
    EXPECT_LE(iterations[i].ts, end + eps);
    // The last iteration also holds the run's one termination readback.
    if (i + 1 < iterations.size()) {
      EXPECT_LE(iterations[i].ts + iterations[i].dur, end + eps);
    }
  }
}

// The trace artifacts of persistent runs keep the determinism contract:
// byte-identical Chrome and JSONL documents at any simulator thread count.
TEST(PersistentTrace, ArtifactsAreIdenticalAtAnySimulatorThreadCount) {
  adaptive::Graph g =
      adaptive::Graph::from_csr(graph::gen::road_network(2500, 5));
  g.set_uniform_weights(1, 100);
  const auto traced = [&](int threads) {
    simt::ExecPool::set_threads(threads);
    trace::Tracer::instance().clear();
    auto& tracer = trace::Tracer::instance();
    auto* chrome = static_cast<trace::ChromeTraceSink*>(
        tracer.attach(std::make_unique<trace::ChromeTraceSink>()));
    auto* jsonl = static_cast<trace::JsonlDecisionSink*>(
        tracer.attach(std::make_unique<trace::JsonlDecisionSink>()));
    simt::Device dev;
    EXPECT_TRUE(adaptive::bfs(dev, g, 0).ok());
    EXPECT_TRUE(adaptive::sssp(dev, g, 1).ok());
    std::string out = chrome->json() + jsonl->data();
    EXPECT_EQ(jsonl->persistent_events() % 2, 0u);
    EXPECT_GT(jsonl->persistent_events(), 0u);
    trace::Tracer::instance().clear();
    simt::ExecPool::set_threads(1);
    return out;
  };
  EXPECT_EQ(traced(1), traced(4));
}

// On a created stream the run is placed when it ends, into the compute
// engine's first gap that fits it; the iterations it held move with it.
TEST(PersistentTrace, IterationsFollowTheRunsPlacementOnAStream) {
  trace::Tracer::instance().clear();
  auto* chrome = static_cast<trace::ChromeTraceSink*>(
      trace::Tracer::instance().attach(
          std::make_unique<trace::ChromeTraceSink>()));
  const graph::Csr g = graph::gen::road_network(2500, 4);
  simt::Device dev;
  gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, /*with_weights=*/false);
  // A first BFS with one launch per kernel: its readbacks leave gaps on
  // the compute engine.
  rt::AdaptiveOptions o;
  o.engine.stream = dev.create_stream();
  rt::adaptive_bfs(dev, dg, g, 0, o);
  // Ready long before the first BFS ends: the second's init kernel fits a
  // gap, its run fits none.
  o.persistent = true;
  o.engine.stream = dev.create_stream();
  const gg::GpuBfsResult second = rt::adaptive_bfs(dev, dg, g, 1, o);
  dg.release(dev);
  const std::vector<TraceEvent> events = x_events(chrome->json());
  trace::Tracer::instance().clear();

  std::vector<TraceEvent> runs;
  std::vector<TraceEvent> iterations;  // of the second BFS
  for (const TraceEvent& e : events) {
    if (e.name == "bfs.persistent") runs.push_back(e);
    if (e.name == "bfs.iteration" && runs.size() == 1) iterations.push_back(e);
  }
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(iterations.size(), second.metrics.iterations.size());
  const TraceEvent& run = runs[0];
  ASSERT_GT(run.ts, iterations[0].ts);  // the first BFS delayed this run
  const double eps = 1e-6;
  double durations = 0;
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    durations += second.metrics.iterations[i].time_us;
    if (i + 1 == iterations.size()) break;
    // Held iterations end inside the run; all but the entry start there.
    EXPECT_LE(iterations[i].ts + iterations[i].dur, run.ts + run.dur + eps);
    if (i > 0) {
      EXPECT_GE(iterations[i].ts, run.ts - eps);
    }
  }
  // The entry iteration spans the wait, so the iterations still tile the
  // traversal from the stream's ready time.
  EXPECT_NEAR(iterations[0].ts + durations,
              iterations.back().ts + iterations.back().dur, 1e-6);
}

}  // namespace
