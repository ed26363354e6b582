#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/algorithms.h"
#include "api/graph_api.h"
#include "api/session.h"
#include "graph/gen/generators.h"

namespace {

using adaptive::Graph;
using adaptive::Policy;

Graph small_graph() {
  return Graph::from_edges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
}

TEST(GraphApi, FromEdges) {
  const auto g = small_graph();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.default_source(), 0u);
}

TEST(GraphApi, FromBuilder) {
  graph::GraphBuilder b;
  b.add_undirected(0, 1).add_undirected(1, 2);
  const auto g = Graph::from_builder(b);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(GraphApi, StatsCached) {
  const auto g = small_graph();
  const auto& s1 = g.stats();
  const auto& s2 = g.stats();
  EXPECT_EQ(&s1, &s2);
  EXPECT_EQ(s1.num_nodes, 5u);
}

TEST(GraphApi, WeightsEnableSssp) {
  auto g = small_graph();
  EXPECT_FALSE(g.is_weighted());
  g.set_uniform_weights(1, 10);
  EXPECT_TRUE(g.is_weighted());
}

TEST(GraphApi, BinarySaveLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "api_test.agg").string();
  auto g = small_graph();
  g.set_uniform_weights(1, 5);
  g.save_binary(path);
  const auto loaded = Graph::load_binary(path);
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(loaded.is_weighted());
  std::remove(path.c_str());
}

TEST(Algorithms, BfsDefaultPolicy) {
  const auto g = small_graph();
  const auto out = adaptive::bfs(g, 0);
  EXPECT_EQ(out.level[4], 3u);
  EXPECT_GT(out.metrics.total_us, 0.0);
}

TEST(Algorithms, AllPoliciesAgree) {
  auto csr = graph::gen::erdos_renyi(5000, 25000, 13);
  graph::assign_uniform_weights(csr, 1, 100, 1);
  const auto g = Graph::from_csr(std::move(csr));

  const auto cpu_out = adaptive::bfs(g, 0, Policy::cpu());
  const auto adapt_out = adaptive::bfs(g, 0, Policy::adapt());
  const auto fixed_out = adaptive::bfs(g, 0, Policy::fixed("U_B_QU"));
  EXPECT_EQ(adapt_out.level, cpu_out.level);
  EXPECT_EQ(fixed_out.level, cpu_out.level);

  const auto cpu_d = adaptive::sssp(g, 0, Policy::cpu());
  const auto adapt_d = adaptive::sssp(g, 0, Policy::adapt());
  const auto fixed_d = adaptive::sssp(g, 0, Policy::fixed("O_T_QU"));
  EXPECT_EQ(adapt_d.dist, cpu_d.dist);
  EXPECT_EQ(fixed_d.dist, cpu_d.dist);
}

TEST(Algorithms, SharedDeviceAccumulatesClock) {
  const auto g = small_graph();
  simt::Device dev;
  adaptive::bfs(dev, g, 0);
  const double after_first = dev.now_us();
  adaptive::bfs(dev, g, 0);
  EXPECT_GT(dev.now_us(), after_first);
}

TEST(Algorithms, CpuPolicyReportsWallClock) {
  const auto g = small_graph();
  const auto out = adaptive::bfs(g, 0, Policy::cpu());
  EXPECT_GE(out.cpu_wall_ms, 0.0);
  EXPECT_EQ(out.metrics.kernels, 0u);
}

TEST(Algorithms, SsspWithoutWeightsDies) {
  const auto g = small_graph();
  EXPECT_DEATH(adaptive::sssp(g, 0), "weights");
}

TEST(Algorithms, FixedPolicyParsesAllNames) {
  for (const auto v : gg::all_variants()) {
    const auto p = Policy::fixed(gg::variant_name(v));
    EXPECT_EQ(p.variant, v);
  }
}

// ---- concurrent callers -------------------------------------------------------

// The API promises one device per thread: threads that each query on their
// own device (or their own default session) must model exactly what one
// caller alone does.

void expect_same_metrics(const gg::TraversalMetrics& a, const gg::TraversalMetrics& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const gg::IterationRecord& x = a.iterations[i];
    const gg::IterationRecord& y = b.iterations[i];
    EXPECT_EQ(x.iteration, y.iteration) << "iteration " << i;
    EXPECT_EQ(x.ws_size, y.ws_size) << "iteration " << i;
    EXPECT_EQ(x.variant, y.variant) << "iteration " << i;
    EXPECT_EQ(x.time_us, y.time_us) << "iteration " << i;
    EXPECT_EQ(x.on_cpu, y.on_cpu) << "iteration " << i;
  }
  EXPECT_EQ(a.total_us, b.total_us);
  EXPECT_EQ(a.kernel_us, b.kernel_us);
  EXPECT_EQ(a.transfer_us, b.transfer_us);
  EXPECT_EQ(a.kernels, b.kernels);
  EXPECT_EQ(a.simd_efficiency, b.simd_efficiency);
  EXPECT_EQ(a.edges_processed, b.edges_processed);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_TRUE(b.clock.iterations.empty());
}

void expect_same_stats(const simt::DeviceStats& a, const simt::DeviceStats& b) {
  EXPECT_EQ(a.kernels_launched, b.kernels_launched);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.kernel_time_us, b.kernel_time_us);
  EXPECT_EQ(a.transfer_time_us, b.transfer_time_us);
  EXPECT_EQ(a.host_time_us, b.host_time_us);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.lane_work, b.lane_work);
  EXPECT_EQ(a.lockstep_work, b.lockstep_work);
  EXPECT_EQ(a.warps_executed, b.warps_executed);
  EXPECT_EQ(a.warps_uniform, b.warps_uniform);
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d);
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h);
}

const Graph& shared_rmat() {
  static const Graph g =
      Graph::from_csr(graph::gen::rmat({.scale = 14, .seed = 5}));
  return g;
}

struct CallerRun {
  std::vector<adaptive::BfsResult> results;
  simt::DeviceStats stats;  // of the caller's device after its last call
};

// 20 one-shot BFS calls from spread sources over the shared graph, on a
// fresh device or (own_device == false) the thread's default session.
CallerRun call_bfs(bool own_device) {
  const Graph& g = shared_rmat();
  simt::Device own;
  simt::Device& dev =
      own_device ? own : adaptive::Session::default_session().device();
  CallerRun run;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const adaptive::NodeId src = i * 7919 % g.num_nodes();
    run.results.push_back(own_device ? adaptive::bfs(dev, g, src)
                                     : adaptive::bfs(g, src));
  }
  run.stats = dev.stats();
  return run;
}

// call_bfs on `callers` new threads at once.
std::vector<CallerRun> concurrently(int callers, bool own_device) {
  shared_rmat();
  std::vector<CallerRun> runs(static_cast<std::size_t>(callers));
  std::vector<std::thread> threads;
  for (CallerRun& run : runs) {
    threads.emplace_back([&run, own_device] { run = call_bfs(own_device); });
  }
  for (std::thread& t : threads) t.join();
  return runs;
}

void expect_same_run(const CallerRun& solo, const CallerRun& other) {
  ASSERT_EQ(solo.results.size(), other.results.size());
  for (std::size_t i = 0; i < solo.results.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    const adaptive::BfsResult& a = solo.results[i];
    const adaptive::BfsResult& b = other.results[i];
    ASSERT_TRUE(a.ok()) << a.error_message();
    ASSERT_TRUE(b.ok()) << b.error_message();
    EXPECT_EQ(a.level, b.level);
    expect_same_metrics(a.metrics, b.metrics);
  }
  expect_same_stats(solo.stats, other.stats);
}

TEST(ConcurrentCallers, SeparateDevicesMatchASoloRun) {
  const CallerRun solo = concurrently(1, /*own_device=*/true).front();
  for (const CallerRun& run : concurrently(2, /*own_device=*/true)) {
    expect_same_run(solo, run);
  }
}

TEST(ConcurrentCallers, DefaultSessionsMatchASoloRun) {
  const CallerRun solo = concurrently(1, /*own_device=*/false).front();
  for (const CallerRun& run : concurrently(2, /*own_device=*/false)) {
    expect_same_run(solo, run);
  }
}

}  // namespace
