// Hybrid CPU/GPU execution (extension; cf. Hong et al. [13]): correctness
// across thresholds and the performance claim on high-diameter graphs.
#include <gtest/gtest.h>

#include <string>

#include "cpu/bfs_serial.h"
#include "cpu/sssp_serial.h"
#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"

namespace {

gg::EngineOptions hybrid_opts(std::uint64_t threshold) {
  gg::EngineOptions opts;
  opts.hybrid_cpu_threshold = threshold;
  return opts;
}

class ThresholdSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThresholdSweep, BfsCorrectAtEveryThreshold) {
  const auto g = graph::gen::erdos_renyi(5000, 25000, 41);
  const auto expected = cpu::bfs(g, 0);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_T_QU"),
                               hybrid_opts(GetParam()));
  EXPECT_EQ(got.level, expected.level);
}

TEST_P(ThresholdSweep, SsspCorrectAtEveryThreshold) {
  auto g = graph::gen::erdos_renyi(4000, 20000, 43);
  graph::assign_uniform_weights(g, 1, 100, 4);
  const auto expected = cpu::dijkstra(g, 0);
  simt::Device dev;
  const auto got = gg::run_sssp(dev, g, 0, gg::parse_variant("U_B_QU"),
                                hybrid_opts(GetParam()));
  EXPECT_EQ(got.dist, expected.dist);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(1ull, 32ull, 500ull, 100000ull),
                         [](const auto& info) {
                           std::string name = "t";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Hybrid, DisabledByDefault) {
  const auto g = graph::gen::erdos_renyi(2000, 8000, 5);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_T_QU"));
  for (const auto& it : got.metrics.iterations) EXPECT_FALSE(it.on_cpu);
  EXPECT_EQ(dev.stats().host_time_us, 0.0);
}

TEST(Hybrid, HugeThresholdRunsEntirelyOnHost) {
  const auto g = graph::gen::erdos_renyi(2000, 8000, 5);
  const auto expected = cpu::bfs(g, 0);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_T_QU"),
                               hybrid_opts(1u << 30));
  EXPECT_EQ(got.level, expected.level);
  for (const auto& it : got.metrics.iterations) EXPECT_TRUE(it.on_cpu);
  EXPECT_GT(dev.stats().host_time_us, 0.0);
}

TEST(Hybrid, SmallFrontiersOnHostLargeOnDevice) {
  // A random graph: frontier 1 -> explodes -> collapses. With a threshold in
  // between, the run must mix phases with a bounded number of switches.
  const auto g = graph::gen::erdos_renyi(30000, 150000, 6);
  simt::Device dev;
  const auto got = gg::run_bfs(dev, g, 0, gg::parse_variant("U_T_BM"),
                               hybrid_opts(1000));
  bool saw_cpu = false, saw_gpu = false;
  int switches = 0;
  for (std::size_t i = 0; i < got.metrics.iterations.size(); ++i) {
    const auto& it = got.metrics.iterations[i];
    saw_cpu |= it.on_cpu;
    saw_gpu |= !it.on_cpu;
    EXPECT_EQ(it.on_cpu, it.ws_size < 1000) << "iteration " << i;
    if (i > 0) switches += it.on_cpu != got.metrics.iterations[i - 1].on_cpu;
  }
  EXPECT_TRUE(saw_cpu);
  EXPECT_TRUE(saw_gpu);
  EXPECT_LE(switches, 3);  // ramp-up and ramp-down, not thrashing
  EXPECT_GT(dev.stats().host_time_us, 0.0);
  EXPECT_EQ(got.level, cpu::bfs(g, 0).level);
}

TEST(Hybrid, BeatsPureGpuOnHighDiameterGraph) {
  // The paper's CO-road problem: hundreds of tiny frontiers each paying
  // kernel launch + readback. Hosting them must win (Hong et al.'s result).
  auto g = graph::gen::road_network(30000, 15);
  graph::assign_uniform_weights(g, 1, 1000, 2);
  const auto src = graph::suggest_source(g);
  simt::Device pure_dev, hybrid_dev;
  const auto pure = gg::run_sssp(pure_dev, g, src, gg::parse_variant("U_T_QU"));
  gg::EngineOptions opts = hybrid_opts(2688);
  const auto mixed = gg::run_sssp(hybrid_dev, g, src,
                                  gg::parse_variant("U_T_QU"), opts);
  EXPECT_EQ(pure.dist, mixed.dist);
  EXPECT_LT(mixed.metrics.total_us, 0.5 * pure.metrics.total_us);
}

TEST(Hybrid, SwitchPaysStateTransfer) {
  const auto g = graph::gen::erdos_renyi(30000, 150000, 6);
  simt::Device plain_dev, hybrid_dev;
  gg::run_bfs(plain_dev, g, 0, gg::parse_variant("U_T_QU"));
  gg::run_bfs(hybrid_dev, g, 0, gg::parse_variant("U_T_QU"), hybrid_opts(1000));
  // The hybrid run moves the n-word state array at each phase switch.
  EXPECT_GT(hybrid_dev.stats().bytes_d2h, plain_dev.stats().bytes_d2h);
}

TEST(Hybrid, ComposesWithAdaptiveSelector) {
  auto g = graph::gen::road_network(20000, 19);
  graph::assign_uniform_weights(g, 1, 1000, 3);
  const auto src = graph::suggest_source(g);
  const auto expected = cpu::dijkstra(g, src);
  simt::Device dev;
  rt::AdaptiveOptions opts;
  opts.engine.hybrid_cpu_threshold = 2688;
  const auto got = rt::adaptive_sssp(dev, g, src, opts);
  EXPECT_EQ(got.dist, expected.dist);
}

}  // namespace
