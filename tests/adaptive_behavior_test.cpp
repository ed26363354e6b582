// Behavioral properties of the adaptive runtime across topology families:
// the diameter/degree knobs of Watts-Strogatz graphs let us sweep a single
// parameter and check that the runtime reacts the way the paper's analysis
// predicts.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cpu/bfs_serial.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"

namespace {

class RewireSweep : public ::testing::TestWithParam<double> {};

TEST_P(RewireSweep, AdaptiveBfsCorrectAcrossDiameterRegimes) {
  const double p = GetParam();
  const auto g = graph::gen::watts_strogatz(20000, 6, p, 31);
  const auto expected = cpu::bfs(g, 0);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, g, 0);
  EXPECT_EQ(got.level, expected.level);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RewireSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.2, 0.8),
                         [](const auto& info) {
                           std::string name = "p";
                           name += std::to_string(
                               static_cast<int>(info.param * 100));
                           return name;
                         });

TEST(AdaptiveBehavior, IterationCountDropsWithRewiring) {
  // More shortcuts = smaller diameter = fewer level-synchronous iterations.
  simt::Device d1, d2;
  const auto lattice = graph::gen::watts_strogatz(20000, 6, 0.0, 7);
  const auto small_world = graph::gen::watts_strogatz(20000, 6, 0.3, 7);
  const auto a = rt::adaptive_bfs(d1, lattice, 0);
  const auto b = rt::adaptive_bfs(d2, small_world, 0);
  EXPECT_GT(a.metrics.iterations.size(), 3 * b.metrics.iterations.size());
}

TEST(AdaptiveBehavior, LatticeStaysInQueueRegion) {
  // A ring lattice's frontier is bounded by 2k; it never crosses T2, so the
  // runtime must remain in B_QU throughout (Fig. 11 leftmost region).
  const auto g = graph::gen::watts_strogatz(20000, 6, 0.0, 7);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, g, 0);
  for (const auto& it : got.metrics.iterations) {
    EXPECT_EQ(gg::variant_name(it.variant), "U_B_QU");
  }
  EXPECT_EQ(got.metrics.switches, 0u);
}

TEST(AdaptiveBehavior, SmallWorldCrossesIntoBitmapRegion) {
  // With strong rewiring the frontier explodes past T3 within a few hops.
  const auto g = graph::gen::watts_strogatz(30000, 8, 0.5, 7);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, g, 0);
  bool saw_bitmap = false;
  for (const auto& it : got.metrics.iterations) {
    saw_bitmap |= it.variant.repr == gg::WorksetRepr::bitmap;
  }
  EXPECT_TRUE(saw_bitmap);
  EXPECT_GT(got.metrics.switches, 0u);
}

TEST(AdaptiveBehavior, SwitchCountsMatchVariantChanges) {
  const auto g = graph::gen::erdos_renyi(50000, 250000, 21);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, g, 0);
  std::uint32_t observed = 0;
  for (std::size_t i = 1; i < got.metrics.iterations.size(); ++i) {
    observed += !(got.metrics.iterations[i].variant ==
                  got.metrics.iterations[i - 1].variant);
  }
  EXPECT_EQ(got.metrics.switches, observed);
}

TEST(AdaptiveBehavior, DecisionsPerIterationWithDefaultSampling) {
  const auto g = graph::gen::erdos_renyi(20000, 100000, 23);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, g, 0);
  EXPECT_EQ(got.metrics.decisions, got.metrics.iterations.size());
}

TEST(AdaptiveBehavior, StaleDecisionsWithCoarseSampling) {
  const auto g = graph::gen::erdos_renyi(20000, 100000, 23);
  simt::Device dev;
  rt::AdaptiveOptions opts;
  opts.monitor_interval = 1000;  // effectively never re-decide
  const auto got = rt::adaptive_bfs(dev, g, 0, opts);
  // Only the initial decision applies: no switches possible.
  EXPECT_EQ(got.metrics.switches, 0u);
  std::set<std::string> used;
  for (const auto& it : got.metrics.iterations) {
    used.insert(gg::variant_name(it.variant));
  }
  EXPECT_EQ(used.size(), 1u);
}

TEST(AdaptiveBehavior, MonitoringCostVisibleInModeledTime) {
  // R=1 in bitmap-heavy phases charges a count kernel per iteration; R=8
  // must therefore be no slower on a bitmap-dominated traversal.
  const auto g = graph::gen::erdos_renyi(80000, 500000, 29);
  simt::Device d1, d2;
  rt::AdaptiveOptions fine, coarse;
  fine.monitor_interval = 1;
  coarse.monitor_interval = 8;
  const auto a = rt::adaptive_bfs(d1, g, 0, fine);
  const auto b = rt::adaptive_bfs(d2, g, 0, coarse);
  EXPECT_EQ(a.level, b.level);
  EXPECT_GT(a.metrics.decisions, b.metrics.decisions);
}

TEST(AdaptiveBehavior, SharedUpdateVectorMakesSwitchesFree) {
  // A forced alternation of representations must not change the number of
  // frontier elements processed (the switch itself moves no data).
  const auto g = graph::gen::erdos_renyi(10000, 50000, 17);
  simt::Device d1, d2;
  const auto fixed = gg::run_bfs(d1, g, 0, gg::parse_variant("U_T_QU"));
  gg::EngineOptions opts;
  opts.monitor_interval = 1;
  const auto alternating = gg::run_bfs(
      d2, g, 0,
      [](const gg::SelectorInput& in) {
        return gg::unordered_variants()[in.iteration % 4];
      },
      opts);
  EXPECT_EQ(alternating.metrics.edges_processed, fixed.metrics.edges_processed);
  EXPECT_EQ(alternating.metrics.iterations.size(),
            fixed.metrics.iterations.size());
}

}  // namespace
