// Engine edge cases and cross-variant equivalence properties: all variants
// (including the warp-centric extension) must agree with each other on
// arbitrary graphs, and degenerate topologies must not trip the engines.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cpu/bfs_serial.h"
#include "cpu/sssp_serial.h"
#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/multi_source_engine.h"
#include "gpu_graph/cc_engine.h"
#include "gpu_graph/generic_engine.h"
#include "gpu_graph/mst_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "graph/gen/generators.h"

namespace {

std::vector<gg::Variant> every_variant() {
  std::vector<gg::Variant> out;
  for (const auto v : gg::all_variants()) out.push_back(v);
  for (const auto v : gg::warp_centric_variants()) out.push_back(v);
  return out;
}

void expect_all_variants_agree(const graph::Csr& g, graph::NodeId src) {
  simt::Device ref_dev;
  const auto ref = gg::run_bfs(ref_dev, g, src, gg::parse_variant("U_T_QU"));
  for (const auto v : every_variant()) {
    simt::Device dev;
    const auto got = gg::run_bfs(dev, g, src, v);
    ASSERT_EQ(got.level, ref.level) << gg::variant_name(v);
  }
}

TEST(EngineEdge, SingleNodeGraph) {
  const auto g = graph::csr_from_edges(1, std::vector<graph::Edge>{});
  expect_all_variants_agree(g, 0);
}

TEST(EngineEdge, SelfLoopOnly) {
  const auto g = graph::csr_from_edges(1, std::vector<graph::Edge>{{0, 0}});
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_T_BM"));
  EXPECT_EQ(got.level[0], 0u);
  EXPECT_LE(got.metrics.iterations.size(), 2u);
}

TEST(EngineEdge, TwoNodeCycle) {
  const auto g =
      graph::csr_from_edges(2, std::vector<graph::Edge>{{0, 1}, {1, 0}});
  expect_all_variants_agree(g, 0);
}

TEST(EngineEdge, StarGraphHubSource) {
  // One node with a huge outdegree: one iteration discovers everything.
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 1; i < 3000; ++i) edges.push_back({0, i});
  const auto g = graph::csr_from_edges(3000, edges);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_B_QU"));
  EXPECT_EQ(got.metrics.iterations.size(), 2u);
  for (std::uint32_t i = 1; i < 3000; ++i) EXPECT_EQ(got.level[i], 1u);
}

TEST(EngineEdge, StarGraphLeafSource) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 1; i < 100; ++i) edges.push_back({0, i});
  const auto g = graph::csr_from_edges(100, edges);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 50, gg::parse_variant("U_T_QU"));
  EXPECT_EQ(got.level[50], 0u);
  EXPECT_EQ(got.level[0], graph::kInfinity);
}

TEST(EngineEdge, LongChain) {
  // Worst-case iteration count: a path graph.
  constexpr std::uint32_t kLen = 2000;
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 0; i + 1 < kLen; ++i) edges.push_back({i, i + 1});
  const auto g = graph::csr_from_edges(kLen, edges);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_B_QU"));
  EXPECT_EQ(got.level[kLen - 1], kLen - 1);
  EXPECT_EQ(got.metrics.iterations.size(), kLen);
}

TEST(EngineEdge, MultigraphDuplicateEdges) {
  std::vector<graph::Edge> edges{{0, 1}, {0, 1}, {0, 1}, {1, 2}, {1, 2}};
  std::vector<std::uint32_t> w{5, 3, 9, 2, 7};
  const auto g = graph::csr_from_edges(3, edges, w);
  const auto expected = cpu::dijkstra(g, 0);
  EXPECT_EQ(expected.dist[1], 3u);  // min parallel edge
  EXPECT_EQ(expected.dist[2], 5u);
  for (const auto v : every_variant()) {
    simt::Device dev;
    const auto got = gg::run_sssp(dev, g, 0, v);
    ASSERT_EQ(got.dist, expected.dist) << gg::variant_name(v);
  }
}

TEST(EngineEdge, DisconnectedComponents) {
  auto g = graph::gen::erdos_renyi(500, 1500, 3);
  // Append an isolated clique unreachable from component one.
  std::vector<graph::Edge> edges;
  for (std::uint32_t v = 0; v < 500; ++v) {
    for (const auto t : g.neighbors(v)) edges.push_back({v, t});
  }
  for (std::uint32_t i = 500; i < 510; ++i) {
    for (std::uint32_t j = 500; j < 510; ++j) {
      if (i != j) edges.push_back({i, j});
    }
  }
  const auto g2 = graph::csr_from_edges(510, edges);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g2, 0, gg::parse_variant("U_T_BM"));
  for (std::uint32_t i = 500; i < 510; ++i) {
    EXPECT_EQ(got.level[i], graph::kInfinity);
  }
}

TEST(EngineEdge, AllVariantsAgreeOnRandomGraphs) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const auto g = graph::gen::erdos_renyi(800, 4000, seed);
    expect_all_variants_agree(g, 0);
  }
}

TEST(EngineEdge, AllVariantsAgreeOnSsspRandomGraph) {
  auto g = graph::gen::erdos_renyi(600, 3000, 44);
  graph::assign_uniform_weights(g, 1, 50, 9);
  const auto expected = cpu::dijkstra(g, 0);
  for (const auto v : every_variant()) {
    simt::Device dev;
    const auto got = gg::run_sssp(dev, g, 0, v);
    ASSERT_EQ(got.dist, expected.dist) << gg::variant_name(v);
  }
}

// Every frontier engine stops at EngineOptions::max_iterations. Each one
// needs at least two iterations on this weighted symmetric chain (MST: one
// round merges the chain, a second finds nothing left to merge), so a limit
// of one trips all of them.
TEST(EngineEdge, MaxIterationsSafetyValveTrips) {
  auto g = graph::symmetrize(graph::csr_from_edges(
      5, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  graph::assign_symmetric_uniform_weights(g, 1, 50, 3);
  gg::EngineOptions opts;
  opts.max_iterations = 1;
  const gg::Variant v = gg::parse_variant("U_T_QU");
  const auto selector = gg::fixed_variant(v);
  const std::vector<graph::NodeId> sources{0, 4};
  // BFS as a user operator.
  const auto generic = [&](simt::Device& dev) {
    static constexpr simt::Site kLevel{0, "t.level"};
    static constexpr simt::Site kRows{1, "t.rows"};
    static constexpr simt::Site kEdges{2, "t.edges"};
    gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, false);
    auto level = dev.alloc<std::uint32_t>(g.num_nodes, "level");
    dev.fill(level, graph::kInfinity);
    dev.write_scalar(level, 0, 0u);
    gg::run_frontier(
        dev, g, dg, {0},
        [&](simt::ThreadCtx& ctx, std::uint32_t id, std::uint32_t offset,
            std::uint32_t step, gg::Push& push) {
          const std::uint32_t next = ctx.load(level, id, kLevel) + 1;
          const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRows);
          for (std::uint32_t e = ctx.load(dg.row_offsets, id, kRows) + offset;
               e < end; e += step) {
            const std::uint32_t t = ctx.load(dg.col_indices, e, kEdges);
            if (next < ctx.load(level, t, kLevel)) {
              ctx.store(level, t, next, kLevel);
              push.mark(t);
            }
          }
        },
        selector, opts);
  };
  gg::PageRankOptions pr;
  pr.engine = opts;
  const struct {
    const char* algo;
    std::function<void(simt::Device&)> run;
  } engines[] = {
      {"bfs", [&](simt::Device& dev) { gg::run_bfs(dev, g, 0, v, opts); }},
      {"sssp", [&](simt::Device& dev) { gg::run_sssp(dev, g, 0, v, opts); }},
      // Ordered SSSP, the one frontier traversal off gg::FrontierLoop.
      {"sssp",
       [&](simt::Device& dev) {
         gg::run_sssp(dev, g, 0, gg::parse_variant("O_T_QU"), opts);
       }},
      {"cc", [&](simt::Device& dev) { gg::run_cc(dev, g, v, opts); }},
      {"pagerank",
       [&](simt::Device& dev) { gg::run_pagerank(dev, g, selector, pr); }},
      {"mst", [&](simt::Device& dev) { gg::run_mst(dev, g, v, opts); }},
      {"msbfs",
       [&](simt::Device& dev) {
         gg::run_bfs_multi(dev, g, sources, selector, opts);
       }},
      {"generic", generic},
  };
  for (const auto& e : engines) {
    simt::Device dev;
    EXPECT_DEATH(e.run(dev), std::string(e.algo) + " failed to converge")
        << e.algo;
  }
}

TEST(EngineEdge, MetricsTotalsAreConsistent) {
  auto g = graph::gen::erdos_renyi(2000, 10000, 5);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_B_BM"));
  double iter_sum = 0;
  for (const auto& it : got.metrics.iterations) iter_sum += it.time_us;
  // Per-iteration times exclude setup/teardown transfers, so they must sum
  // to less than the total but account for most of it.
  EXPECT_LT(iter_sum, got.metrics.total_us);
  EXPECT_GT(got.metrics.kernel_us, 0.0);
  EXPECT_GT(got.metrics.transfer_us, 0.0);
  EXPECT_GT(got.metrics.total_us,
            got.metrics.kernel_us + got.metrics.transfer_us - 1e-6);
}

TEST(EngineEdge, OrderedBfsWarpMappingSupported) {
  // Warp mapping restriction applies to ordered SSSP only; ordered BFS is
  // level-synchronous and runs under any mapping.
  const auto g = graph::gen::erdos_renyi(500, 2500, 6);
  const auto expected = cpu::bfs(g, 0);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("O_W_QU"));
  EXPECT_EQ(got.level, expected.level);
}

TEST(EngineEdge, OrderedSsspWarpMappingRejected) {
  auto g = graph::gen::erdos_renyi(100, 500, 7);
  graph::assign_uniform_weights(g, 1, 10, 1);
  simt::Device dev;
  EXPECT_DEATH(gg::run_sssp(dev, g, 0, gg::parse_variant("O_W_QU")),
               "unordered-only");
}

}  // namespace
