#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "conformance_corpus.h"
#include "cpu/sssp_serial.h"
#include "gpu_graph/multi_source_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "graph/gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/transform.h"
#include "runtime/adaptive_engine.h"

namespace {

using gg::Variant;

struct GraphCase {
  const char* name;
  graph::Csr csr;
  graph::NodeId source;
};

std::vector<GraphCase>& test_graphs() {
  static std::vector<GraphCase> cases = [] {
    std::vector<GraphCase> out;
    {
      const std::vector<graph::Edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 2}};
      const std::vector<std::uint32_t> w{5, 3, 1, 10};
      out.push_back({"tiny", graph::csr_from_edges(4, edges, w), 0});
    }
    {
      auto g = graph::gen::erdos_renyi(2500, 12500, 21);
      graph::assign_uniform_weights(g, 1, 100, 2);
      out.push_back({"er", std::move(g), 0});
    }
    {
      auto g = graph::gen::road_network(2000, 5);
      graph::assign_uniform_weights(g, 1, 100, 3);
      const auto src = graph::suggest_source(g);
      out.push_back({"road", std::move(g), src});
    }
    {
      graph::gen::PowerLawParams p;
      p.num_nodes = 3000;
      p.tail_max = 200;
      p.tail_alpha = 1.3;
      p.seed = 31;
      auto g = graph::gen::powerlaw_configuration(p);
      graph::assign_uniform_weights(g, 1, 100, 4);
      const auto src = graph::suggest_source(g);
      out.push_back({"powerlaw", std::move(g), src});
    }
    return out;
  }();
  return cases;
}

struct SsspCase {
  std::size_t graph_index;
  Variant variant;
};

class GpuSsspVariants : public ::testing::TestWithParam<SsspCase> {};

TEST_P(GpuSsspVariants, MatchesSerialDijkstra) {
  const auto& [gi, variant] = GetParam();
  const auto& gc = test_graphs()[gi];
  const auto expected = cpu::dijkstra(gc.csr, gc.source);

  simt::Device dev;
  const auto got = gg::run_sssp(dev, gc.csr, gc.source, variant);
  EXPECT_EQ(got.dist, expected.dist) << gc.name;
  EXPECT_GT(got.metrics.total_us, 0.0);
  EXPECT_FALSE(got.metrics.iterations.empty());
}

std::vector<SsspCase> all_sssp_cases() {
  std::vector<SsspCase> cases;
  for (std::size_t g = 0; g < test_graphs().size(); ++g) {
    for (const Variant v : gg::all_variants()) {
      cases.push_back({g, v});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllGraphs, GpuSsspVariants,
                         ::testing::ValuesIn(all_sssp_cases()),
                         [](const auto& info) {
                           return std::string(test_graphs()[info.param.graph_index].name) +
                                  "_" + gg::variant_name(info.param.variant);
                         });

TEST(GpuSssp, OrderedSettlesEachNodeOnce) {
  // Ordered (Dijkstra-like) processes every reachable node exactly once, so
  // edge visits equal the reachable edge count.
  const auto& gc = test_graphs()[1];
  const auto reach = graph::compute_reach(gc.csr, gc.source);
  simt::Device dev;
  const auto got = gg::run_sssp(dev, gc.csr, gc.source,
                                gg::parse_variant("O_T_BM"));
  EXPECT_EQ(got.metrics.edges_processed, reach.reachable_edges);
}

TEST(GpuSssp, UnorderedRevisitsNodes) {
  // Unordered (Bellman-Ford-like) re-processes nodes whose distance
  // improves; on a weighted random graph it must do strictly more edge work
  // than the ordered algorithm.
  const auto& gc = test_graphs()[1];
  simt::Device dev_u, dev_o;
  const auto u = gg::run_sssp(dev_u, gc.csr, gc.source, gg::parse_variant("U_T_BM"));
  const auto o = gg::run_sssp(dev_o, gc.csr, gc.source, gg::parse_variant("O_T_BM"));
  EXPECT_GT(u.metrics.edges_processed, o.metrics.edges_processed);
}

TEST(GpuSssp, OrderedTakesMoreIterations) {
  // Paper Sec. IV.A: ordered algorithms take more iterations to converge
  // (one per distinct distance value vs one per relaxation wave).
  const auto& gc = test_graphs()[1];
  simt::Device dev_u, dev_o;
  const auto u = gg::run_sssp(dev_u, gc.csr, gc.source, gg::parse_variant("U_B_QU"));
  const auto o = gg::run_sssp(dev_o, gc.csr, gc.source, gg::parse_variant("O_B_QU"));
  EXPECT_GT(o.metrics.iterations.size(), u.metrics.iterations.size());
}

TEST(GpuSssp, UnorderedBeatsOrderedOnModeledTime) {
  // Paper Sec. VII.A: "unordered algorithms are significantly faster than
  // their ordered version" on SSSP.
  const auto& gc = test_graphs()[3];  // power-law
  simt::Device dev_u, dev_o;
  const auto u = gg::run_sssp(dev_u, gc.csr, gc.source, gg::parse_variant("U_B_QU"));
  const auto o = gg::run_sssp(dev_o, gc.csr, gc.source, gg::parse_variant("O_B_QU"));
  EXPECT_LT(u.metrics.total_us, o.metrics.total_us);
}

TEST(GpuSssp, UnitWeightsMatchBfsLevels) {
  auto g = graph::gen::erdos_renyi(2000, 9000, 77);
  graph::assign_uniform_weights(g, 1, 1, 1);
  const auto expected = cpu::dijkstra(g, 0);
  simt::Device dev;
  const auto got = gg::run_sssp(dev, g, 0, gg::parse_variant("U_T_QU"));
  EXPECT_EQ(got.dist, expected.dist);
}

TEST(GpuSssp, WorkingSetLargerThanBfs) {
  // Paper Sec. III.B: SSSP working sets are larger than BFS ones because
  // nodes re-enter when their distance improves.
  const auto& gc = test_graphs()[1];
  simt::Device dev;
  const auto got = gg::run_sssp(dev, gc.csr, gc.source, gg::parse_variant("U_T_QU"));
  std::uint64_t total_ws = 0;
  for (const auto& it : got.metrics.iterations) total_ws += it.ws_size;
  const auto reach = graph::compute_reach(gc.csr, gc.source);
  EXPECT_GT(total_ws, reach.reachable_nodes);
}

TEST(GpuSssp, RequiresWeights) {
  const auto g = graph::csr_from_edges(2, std::vector<graph::Edge>{{0, 1}});
  simt::Device dev;
  EXPECT_DEATH(gg::run_sssp(dev, g, 0, gg::parse_variant("U_T_BM")),
               "weights");
}

TEST(GpuSssp, DeterministicAcrossRuns) {
  const auto& gc = test_graphs()[3];
  simt::Device d1, d2;
  const auto a = gg::run_sssp(d1, gc.csr, gc.source, gg::parse_variant("O_B_BM"));
  const auto b = gg::run_sssp(d2, gc.csr, gc.source, gg::parse_variant("O_B_BM"));
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_DOUBLE_EQ(a.metrics.total_us, b.metrics.total_us);
}

// ---- extension: virtual-warp-centric mapping (Hong et al. [12]) ------------

class GpuSsspWarpCentric : public ::testing::TestWithParam<SsspCase> {};

TEST_P(GpuSsspWarpCentric, MatchesSerialCpu) {
  const auto& [gi, variant] = GetParam();
  const auto& gc = test_graphs()[gi];
  const auto expected = cpu::dijkstra(gc.csr, gc.source).dist;
  simt::Device dev;
  const auto got = gg::run_sssp(dev, gc.csr, gc.source, variant);
  EXPECT_EQ(got.dist, expected) << gc.name;
}

std::vector<SsspCase> warp_sssp_cases() {
  std::vector<SsspCase> cases;
  for (std::size_t g = 0; g < test_graphs().size(); ++g) {
    for (const Variant v : gg::warp_centric_variants()) {
      cases.push_back({g, v});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(WarpVariants, GpuSsspWarpCentric,
                         ::testing::ValuesIn(warp_sssp_cases()),
                         [](const auto& info) {
                           return std::string(test_graphs()[info.param.graph_index].name) +
                                  "_" + gg::variant_name(info.param.variant);
                         });

TEST(WarpCentric, ScanQueueGenMatchesAtomic) {
  const auto& gc = test_graphs()[1];
  simt::Device d1, d2;
  gg::EngineOptions scan_opts;
  scan_opts.scan_queue_gen = true;
  const auto a = gg::run_sssp(d1, gc.csr, gc.source, gg::parse_variant("U_B_QU"));
  const auto b = gg::run_sssp(d2, gc.csr, gc.source, gg::parse_variant("U_B_QU"), scan_opts);
  EXPECT_EQ(a.dist, b.dist);
  // Scan generation removes the tail-counter serialization but pays extra
  // passes: times must differ, results must not.
  EXPECT_NE(a.metrics.total_us, b.metrics.total_us);
}

}  // namespace

// ---- fused multi-source SSSP (gpu_graph/multi_source_engine.h) -------------

// Every source slot of a fused run equals an independent run_sssp under the
// same variant and cpu::dijkstra, over the conformance corpus: k of 1, 2, 5
// and 32 sources (every third a duplicate; the degenerate graphs leave
// nodes unreachable), under each fixed U_{T,B,W}_{BM,QU} variant and the
// adaptive selector, on the plain, relabelled and binned layouts.
TEST(SsspMulti, MatchesIndependentRunsOnTheCorpus) {
  std::vector<Variant> variants;
  for (const Variant v : gg::unordered_variants()) variants.push_back(v);
  for (const Variant v : gg::warp_centric_variants()) variants.push_back(v);
  ASSERT_EQ(variants.size(), 6u);
  for (const auto& gc : testutil::conformance_corpus()) {
    if (gc.csr.num_edges() == 0) continue;
    graph::Csr g = gc.csr;
    graph::assign_uniform_weights(g, 1, 31, 5);
    const graph::RelabeledGraph rel = graph::relabel_by_degree(g);
    const graph::RelabeledGraph bin = graph::build_binned(g);
    std::vector<graph::NodeId> sources;
    for (std::uint32_t i = 0; i < 32; ++i) {
      sources.push_back(i % 3 == 2 ? sources[i - 2]
                                   : (i * 7919u + 13u) % g.num_nodes);
    }
    // The oracle per source slot, and the independent runs of the distinct
    // sources of the first five slots under each variant.
    std::vector<std::vector<std::uint32_t>> want;
    for (const graph::NodeId s : sources) {
      want.push_back(cpu::dijkstra(g, s).dist);
    }
    for (const Variant v : variants) {
      for (const std::size_t i : {0, 1, 3, 4}) {
        simt::Device dev;
        ASSERT_EQ(gg::run_sssp(dev, g, sources[i], v).dist, want[i])
            << gc.name << " " << gg::variant_name(v) << " source " << i;
      }
    }
    for (const std::uint32_t k : {1u, 2u, 5u, 32u}) {
      const std::span<const graph::NodeId> batch(sources.data(), k);
      const auto expect_columns = [&](const gg::GpuMultiResult& r,
                                      const std::string& what) {
        ASSERT_EQ(r.num_sources, k) << what;
        ASSERT_EQ(r.values.size(), std::size_t{g.num_nodes} * k) << what;
        for (std::uint32_t s = 0; s < k; ++s) {
          for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
            ASSERT_EQ(r.values_for(v)[s], want[s][v])
                << what << " slot " << s << " node " << v;
          }
        }
      };
      for (const graph::RelabeledGraph* view :
           {static_cast<const graph::RelabeledGraph*>(nullptr), &rel, &bin}) {
        const std::string layout =
            view == nullptr ? "plain" : view == &rel ? "relabelled" : "binned";
        std::vector<graph::NodeId> slots(batch.begin(), batch.end());
        if (view != nullptr) {
          for (graph::NodeId& s : slots) s = view->new_id[s];
        }
        const graph::Csr& run_on = view == nullptr ? g : view->csr;
        for (const Variant v : variants) {
          const std::string what = gc.name + " " + layout + " " +
                                   gg::variant_name(v) + " k=" +
                                   std::to_string(k);
          simt::Device dev;
          gg::GpuMultiResult r =
              gg::run_sssp_multi(dev, run_on, slots, gg::fixed_variant(v));
          if (view != nullptr) rt::rep_payload_to_original(r.values, *view, k);
          expect_columns(r, what);
        }
        // The adaptive selector, through the runtime's layout resolution
        // and the serving path's init kernel and persistent runs.
        rt::AdaptiveOptions ao;
        ao.persistent = true;
        ao.representation = view == nullptr ? gg::Representation::plain
                            : view == &rel  ? gg::Representation::relabelled
                                            : gg::Representation::binned;
        simt::Device dev;
        gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, true);
        expect_columns(rt::adaptive_sssp_multi(dev, dg, g, batch, ao),
                       gc.name + " " + layout + " adaptive k=" +
                           std::to_string(k));
        dg.release(dev);
      }
    }
  }
}

// Fusing shares each iteration's launches across the batch: 32 sources
// launch fewer kernels than one traversal per distinct source.
TEST(SsspMulti, FusesLaunchesAcrossSources) {
  const auto& gc = test_graphs()[1];
  std::vector<graph::NodeId> sources;
  for (std::uint32_t i = 0; i < 32; ++i) {
    sources.push_back((i * 97u) % gc.csr.num_nodes);
  }
  const gg::VariantSelector selector = gg::fixed_variant(gg::parse_variant("U_B_QU"));
  simt::Device fused;
  gg::run_sssp_multi(fused, gc.csr, sources, selector);
  simt::Device single;
  for (const graph::NodeId s : sources) {
    gg::run_sssp(single, gc.csr, s, selector);
  }
  EXPECT_LT(fused.stats().kernels_launched * 4,
            single.stats().kernels_launched);
}
