#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cpu/bfs_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/datasets.h"
#include "graph/gen/generators.h"
#include "runtime/adaptive_engine.h"
#include "runtime/decision.h"
#include "runtime/inspector.h"
#include "runtime/tuner.h"

namespace {

using gg::Mapping;
using gg::Ordering;
using gg::WorksetRepr;
using rt::Thresholds;

Thresholds default_thresholds() {
  return Thresholds::for_device(simt::DeviceProps::fermi_c2070());
}

// ---- decision maker: the five regions of Fig. 11 ---------------------------

TEST(Decision, DerivedThresholdsMatchPaper) {
  const auto t = default_thresholds();
  EXPECT_DOUBLE_EQ(t.t1_avg_outdegree, 32.0);
  EXPECT_DOUBLE_EQ(t.t2_ws_size, 192.0 * 14.0);  // Sec. VII.B: 2,688
}

TEST(Decision, SmallWorksetAlwaysBlockQueue) {
  const auto t = default_thresholds();
  for (const double deg : {2.0, 20.0, 200.0}) {
    const auto v = rt::decide(t, 100, deg, 1000000);
    EXPECT_EQ(v.mapping, Mapping::block);
    EXPECT_EQ(v.repr, WorksetRepr::queue);
  }
}

TEST(Decision, MidWorksetLowDegreeThreadQueue) {
  const auto t = default_thresholds();
  // |WS| = 5000 (> T2), T3 = 30% of 1M (> |WS|), avg deg 5 (< T1).
  const auto v = rt::decide(t, 5000, 5.0, 1000000);
  EXPECT_EQ(v.mapping, Mapping::thread);
  EXPECT_EQ(v.repr, WorksetRepr::queue);
}

TEST(Decision, MidWorksetHighDegreeBlockQueue) {
  const auto t = default_thresholds();
  const auto v = rt::decide(t, 5000, 80.0, 1000000);
  EXPECT_EQ(v.mapping, Mapping::block);
  EXPECT_EQ(v.repr, WorksetRepr::queue);
}

TEST(Decision, LargeWorksetLowDegreeThreadBitmap) {
  const auto t = default_thresholds();
  const auto v = rt::decide(t, 400000, 5.0, 1000000);
  EXPECT_EQ(v.mapping, Mapping::thread);
  EXPECT_EQ(v.repr, WorksetRepr::bitmap);
}

TEST(Decision, LargeWorksetHighDegreeBlockBitmap) {
  const auto t = default_thresholds();
  const auto v = rt::decide(t, 400000, 80.0, 1000000);
  EXPECT_EQ(v.mapping, Mapping::block);
  EXPECT_EQ(v.repr, WorksetRepr::bitmap);
}

TEST(Decision, AlwaysUnordered) {
  const auto t = default_thresholds();
  for (const std::uint64_t ws : {10ull, 10000ull, 500000ull}) {
    for (const double deg : {3.0, 64.0}) {
      EXPECT_EQ(rt::decide(t, ws, deg, 1000000).ordering, Ordering::unordered);
    }
  }
}

TEST(Decision, T3ScalesWithNodeCount) {
  const auto t = default_thresholds();
  // Same |WS|: bitmap on a small graph, queue on a huge one.
  EXPECT_EQ(rt::decide(t, 50000, 5.0, 100000).repr, WorksetRepr::bitmap);
  EXPECT_EQ(rt::decide(t, 50000, 5.0, 10000000).repr, WorksetRepr::queue);
}

TEST(Decision, SkewAwareMappingPrefersBlockOnHeavyTails) {
  const auto t = default_thresholds();
  // avg 8 alone would pick thread; a heavy tail (stddev 100) flips to block
  // (Sec. VI.B: uneven outdegree distributions cause warp divergence under
  // thread mapping).
  EXPECT_EQ(rt::decide(t, 400000, 8.0, 1000000, 0.0).mapping, Mapping::thread);
  EXPECT_EQ(rt::decide(t, 400000, 8.0, 1000000, 100.0).mapping, Mapping::block);
}

TEST(Decision, SkewWeightZeroRestoresPaperRule) {
  auto t = default_thresholds();
  t.skew_weight = 0.0;
  EXPECT_EQ(rt::decide(t, 400000, 8.0, 1000000, 1000.0).mapping, Mapping::thread);
}

TEST(Decision, ExactBoundaryValues) {
  const auto t = default_thresholds();
  // ws == T2 is NOT below T2: the B_QU shortcut must not trigger.
  const auto at_t2 = rt::decide(t, 2688, 5.0, 1000000);
  EXPECT_EQ(at_t2.mapping, Mapping::thread);
  // ws == T3 exactly: "above T3" is strict, so queue.
  const auto at_t3 =
      rt::decide(t, static_cast<std::uint64_t>(0.30 * 1000000), 5.0, 1000000);
  EXPECT_EQ(at_t3.repr, WorksetRepr::queue);
}

TEST(Decision, DeviceDerivedT2TracksSmCount) {
  const auto c2070 = Thresholds::for_device(simt::DeviceProps::fermi_c2070());
  const auto gtx580 = Thresholds::for_device(simt::DeviceProps::fermi_gtx580());
  EXPECT_DOUBLE_EQ(c2070.t2_ws_size, 192.0 * 14);
  EXPECT_DOUBLE_EQ(gtx580.t2_ws_size, 192.0 * 16);
}

// ---- persistent-run bound ---------------------------------------------------

// A degree sequence as persistent_bound reads it, with the top-k prefix
// sums the frontier's edge mass is bounded by.
struct Degrees {
  std::string name;
  std::vector<std::uint64_t> counts;  // counts[d] = nodes of outdegree d
  std::vector<std::uint64_t> prefix;  // prefix[k] = sum of the k largest
  std::uint64_t m = 0;
};

Degrees degrees(std::string name, std::vector<std::uint32_t> seq) {
  Degrees d;
  d.name = std::move(name);
  std::sort(seq.begin(), seq.end(), std::greater<>());
  d.counts.assign(seq.empty() ? 1 : seq.front() + 1, 0);
  d.prefix.assign(1, 0);
  for (const std::uint32_t x : seq) {
    ++d.counts[x];
    d.prefix.push_back(d.prefix.back() + x);
  }
  d.m = d.prefix.back();
  return d;
}

// Flat, hub-skewed and Zipf-like outdegree sequences of n nodes.
std::vector<Degrees> degree_sequences(std::uint32_t n) {
  std::vector<Degrees> out;
  out.push_back(degrees("empty", std::vector<std::uint32_t>(n, 0)));
  for (const std::uint32_t d : {1u, 3u, 64u}) {
    out.push_back(degrees("flat" + std::to_string(d),
                          std::vector<std::uint32_t>(n, d)));
  }
  std::vector<std::uint32_t> hub(n, 3);
  hub[0] = 5000;
  out.push_back(degrees("hub", hub));
  std::vector<std::uint32_t> zipf(n);
  for (std::uint32_t i = 0; i < n; ++i) zipf[i] = 5000 / (i + 1);
  out.push_back(degrees("zipf", zipf));
  return out;
}

// The traversals whose selectors the bound is derived for: BFS and CC
// report a gather volume of at least n (BFS's proxy can reach 0, CC's is
// m - frontier_edges), SSSP a flat 2m + n; PageRank and MS-BFS select push
// only.
enum class Kind { bfs, sssp, cc, push_only };

// For every |WS| below F = rt::persistent_bound, the selector and the pure
// functions it composes keep U_B_QU, push and the current layout, with the
// frontier's edge mass at its largest, the |WS| largest outdegrees, and the
// gather volume at its smallest.
TEST(PersistentBound, NoDecisionChangesBelowTheBound) {
  std::uint64_t checked = 0;
  std::uint64_t alpha_bound = 0;
  for (const std::uint32_t n : {1u, 100u, 4096u, 1000000u}) {
    for (const Degrees& deg : degree_sequences(n)) {
      const std::uint64_t m = deg.m;
      const double avg = static_cast<double>(m) / n;
      const double stddev = 4 * avg;  // skewed: the layout prefers a switch
      const auto maxd = static_cast<std::uint32_t>(deg.counts.size() - 1);
      for (const double t2 : {0.0, 37.5, 2688.0}) {
        for (const double alpha : {0.0, 0.05, 0.5, 2.0}) {
          for (const gg::Direction option :
               {gg::Direction::push, gg::Direction::pull,
                gg::Direction::adaptive}) {
            for (const Kind kind :
                 {Kind::bfs, Kind::sssp, Kind::cc, Kind::push_only}) {
              // The runtime derives a push-only selector's bound under push.
              const gg::Direction dir =
                  kind == Kind::push_only ? gg::Direction::push : option;
              Thresholds t = default_thresholds();
              t.t2_ws_size = t2;
              t.do_alpha = alpha;
              t.rep_min_nodes = 1;
              const gg::PersistentBound b = rt::persistent_bound(
                  t, dir, (kind == Kind::sssp ? 2 * m : 0) + n, deg.counts);
              SCOPED_TRACE(testing::Message()
                           << "n " << n << " degrees " << deg.name << " T2 "
                           << t2 << " alpha " << alpha << " dir "
                           << gg::direction_name(dir) << " kind "
                           << static_cast<int>(kind) << " F " << b.ws_below);
              ASSERT_LE(b.ws_below, static_cast<std::uint64_t>(std::ceil(t2)));
              ASSERT_FALSE(b.init_kernel);
              if (dir == gg::Direction::pull) {
                ASSERT_EQ(b.ws_below, 0u);
              }
              if (b.has_alpha_term && b.alpha_term < b.t2) ++alpha_bound;
              std::vector<std::uint64_t> sizes;
              for (std::uint64_t ws = 0;
                   ws < std::min<std::uint64_t>(b.ws_below, 64); ++ws) {
                sizes.push_back(ws);
              }
              if (b.ws_below > 64) {
                sizes.insert(sizes.end(),
                             {b.ws_below / 2, b.ws_below - 2, b.ws_below - 1});
              }
              const auto pick =
                  kind == Kind::push_only
                      ? rt::make_adaptive_selector(t, 1, "msbfs")
                      : rt::make_adaptive_selector(
                            t, 1, "test", dir, gg::Representation::adaptive);
              for (const gg::Representation cur :
                   {gg::Representation::plain, gg::Representation::relabelled,
                    gg::Representation::binned}) {
                for (const std::uint64_t ws : sizes) {
                  const std::uint64_t fe =
                      deg.prefix[std::min<std::uint64_t>(ws, n)];
                  const std::uint64_t unexplored = kind == Kind::sssp ? 2 * m
                                                   : kind == Kind::cc ? m - fe
                                                                      : 0;
                  const gg::Variant v = rt::decide(t, ws, avg, n, stddev);
                  ASSERT_EQ(v.mapping, Mapping::block) << "ws " << ws;
                  ASSERT_EQ(v.repr, WorksetRepr::queue) << "ws " << ws;
                  if (dir == gg::Direction::adaptive) {
                    ASSERT_EQ(rt::decide_direction(t, gg::Direction::push, fe,
                                                   unexplored, n),
                              gg::Direction::push)
                        << "ws " << ws;
                  }
                  for (const bool resident : {false, true}) {
                    ASSERT_EQ(rt::decide_representation_step(
                                  t, cur, resident, ws, fe, 40ull * n + m, m,
                                  n, avg, stddev, maxd),
                              cur)
                        << "ws " << ws;
                  }
                  gg::SelectorInput in;
                  in.ws_size = ws;
                  in.avg_outdegree = avg;
                  in.outdeg_stddev = stddev;
                  in.num_nodes = n;
                  in.frontier_edges = fe;
                  in.unexplored_edges = unexplored;
                  in.num_edges = m;
                  in.representation = cur;
                  in.max_outdegree = maxd;
                  in.rel_available = in.bin_available = true;
                  const gg::Variant s = pick(in);
                  ASSERT_EQ(s.mapping, Mapping::block) << "ws " << ws;
                  ASSERT_EQ(s.repr, WorksetRepr::queue) << "ws " << ws;
                  ASSERT_EQ(s.direction, gg::Direction::push) << "ws " << ws;
                  ASSERT_EQ(s.representation,
                            kind == Kind::push_only ? gg::Representation::plain
                                                    : cur)
                      << "ws " << ws;
                  ++checked;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
  EXPECT_GT(alpha_bound, 0u);  // the do_alpha side of the min binds somewhere
}

TEST(PersistentBound, DerivedValues) {
  Thresholds t = default_thresholds();
  const std::vector<std::uint32_t> flat17(4096, 17);
  const Degrees flat = degrees("flat17", flat17);
  // Push: F = T2.
  auto b = rt::persistent_bound(t, gg::Direction::push, 4096, flat.counts);
  EXPECT_EQ(b.ws_below, 2688u);
  EXPECT_FALSE(b.has_alpha_term);
  EXPECT_FALSE(b.init_kernel);  // the runtime sets it, not the bound
  // Adaptive BFS on a 4,096-node graph of outdegree 17 throughout: the
  // largest k with 17k <= 0.5 * 4096 is 120.
  b = rt::persistent_bound(t, gg::Direction::adaptive, 4096, flat.counts);
  EXPECT_TRUE(b.has_alpha_term);
  EXPECT_EQ(b.alpha_term, 120u);
  EXPECT_EQ(b.t2, 2688u);
  EXPECT_EQ(b.ws_below, 120u);
  // One hub of 1,000, ten nodes of 100, the rest of 2: the hub and the ten
  // fill 2,000 of the 2,048, and 24 nodes of 2 the rest. A bound by the
  // largest outdegree alone would give floor(2048 / 1000) = 2.
  std::vector<std::uint32_t> skewed(4096, 2);
  skewed[0] = 1000;
  std::fill(skewed.begin() + 1, skewed.begin() + 11, 100u);
  b = rt::persistent_bound(t, gg::Direction::adaptive, 4096,
                           degrees("skewed", skewed).counts);
  EXPECT_EQ(b.alpha_term, 35u);
  EXPECT_EQ(b.ws_below, 35u);
  // SSSP's flat volume 2m + n: at do_alpha 0.5 every edge fits, so F = T2.
  b = rt::persistent_bound(t, gg::Direction::adaptive,
                           2 * flat.m + 4096, flat.counts);
  EXPECT_EQ(b.alpha_term, 2688u);
  EXPECT_EQ(b.ws_below, 2688u);
  // Pull never runs push; a non-integral T2 rounds up.
  EXPECT_EQ(
      rt::persistent_bound(t, gg::Direction::pull, 4096, flat.counts).ws_below,
      0u);
  t.t2_ws_size = 37.5;
  EXPECT_EQ(
      rt::persistent_bound(t, gg::Direction::push, 4096, flat.counts).ws_below,
      38u);
  t.do_alpha = -1;
  EXPECT_EQ(rt::persistent_bound(t, gg::Direction::adaptive, 4096, {}).ws_below,
            0u);
}

// ---- inspector --------------------------------------------------------------

TEST(Inspector, ComputesStaticAttributes) {
  const auto d = graph::gen::make_dataset_scaled_to(graph::gen::DatasetId::amazon, 20000);
  rt::GraphInspector insp(d.csr);
  EXPECT_EQ(insp.num_nodes(), d.csr.num_nodes);
  EXPECT_NEAR(insp.avg_outdegree(), 8.5, 0.3);
  insp.set_monitor_interval(0);
  EXPECT_EQ(insp.monitor_interval(), 1u);  // clamped
  insp.set_monitor_interval(8);
  EXPECT_EQ(insp.monitor_interval(), 8u);
}

// ---- adaptive engine --------------------------------------------------------

class AdaptiveCorrectness
    : public ::testing::TestWithParam<graph::gen::DatasetId> {};

TEST_P(AdaptiveCorrectness, BfsMatchesCpu) {
  const auto d = graph::gen::make_dataset_scaled_to(GetParam(), 8000);
  const auto expected = cpu::bfs(d.csr, d.source);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, d.csr, d.source);
  EXPECT_EQ(got.level, expected.level);
  EXPECT_GT(got.metrics.decisions, 0u);
}

TEST_P(AdaptiveCorrectness, SsspMatchesCpu) {
  const auto d = graph::gen::make_dataset_scaled_to(GetParam(), 6000);
  const auto expected = cpu::dijkstra(d.csr, d.source);
  simt::Device dev;
  const auto got = rt::adaptive_sssp(dev, d.csr, d.source);
  EXPECT_EQ(got.dist, expected.dist);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, AdaptiveCorrectness,
                         ::testing::ValuesIn(graph::gen::all_datasets()),
                         [](const auto& info) {
                           std::string n = graph::gen::dataset_name(info.param);
                           for (auto& c : n) c = c == '-' ? '_' : c;
                           return n;
                         });

TEST(Adaptive, StartsInBlockQueueRegion) {
  // The first frontier has size 1 < T2, so the first iterations must run
  // B_QU regardless of topology.
  const auto d = graph::gen::make_dataset_scaled_to(graph::gen::DatasetId::amazon, 20000);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, d.csr, d.source);
  ASSERT_FALSE(got.metrics.iterations.empty());
  const auto first = got.metrics.iterations.front().variant;
  EXPECT_EQ(first.mapping, Mapping::block);
  EXPECT_EQ(first.repr, WorksetRepr::queue);
}

TEST(Adaptive, SwitchesVariantDuringTraversalOnLargeFrontiers) {
  // A random graph's frontier explodes past T2/T3, forcing at least one
  // representation or mapping switch during the traversal.
  auto g = graph::gen::erdos_renyi(60000, 300000, 5);
  simt::Device dev;
  const auto got = rt::adaptive_bfs(dev, g, 0);
  EXPECT_GT(got.metrics.switches, 0u);
  // And more than one distinct variant must actually have run.
  std::set<std::string> used;
  for (const auto& it : got.metrics.iterations) {
    used.insert(gg::variant_name(it.variant));
  }
  EXPECT_GT(used.size(), 1u);
}

TEST(Adaptive, MonitorIntervalReducesDecisions) {
  auto g = graph::gen::erdos_renyi(30000, 150000, 6);
  simt::Device d1, d2;
  rt::AdaptiveOptions every;
  every.monitor_interval = 1;
  rt::AdaptiveOptions sampled;
  sampled.monitor_interval = 4;
  const auto a = rt::adaptive_bfs(d1, g, 0, every);
  const auto b = rt::adaptive_bfs(d2, g, 0, sampled);
  EXPECT_GT(a.metrics.decisions, b.metrics.decisions);
  // Correctness unaffected by sampling.
  const auto expected = cpu::bfs(g, 0);
  EXPECT_EQ(a.level, expected.level);
  EXPECT_EQ(b.level, expected.level);
}

TEST(Adaptive, ThresholdOverrideRespected) {
  auto g = graph::gen::erdos_renyi(30000, 150000, 8);
  simt::Device dev;
  rt::AdaptiveOptions opts;
  // T3 fraction 0 => bitmap whenever |WS| > T2; queue only below T2.
  opts.thresholds = Thresholds::for_device(dev.props(), 192, 0.0);
  opts.thresholds_overridden = true;
  const auto got = rt::adaptive_bfs(dev, g, 0, opts);
  bool saw_bitmap = false;
  for (const auto& it : got.metrics.iterations) {
    if (it.ws_size > opts.thresholds.t2_ws_size) {
      EXPECT_EQ(it.variant.repr, WorksetRepr::bitmap);
      saw_bitmap = true;
    }
  }
  EXPECT_TRUE(saw_bitmap);
}

// ---- tuner -------------------------------------------------------------------

TEST(Tuner, T3SweepProducesCurveAndBest) {
  const auto d = graph::gen::make_dataset_scaled_to(graph::gen::DatasetId::google, 10000);
  simt::Device dev;
  const std::vector<double> fractions{0.01, 0.05, 0.10};
  const auto sweep = rt::sweep_t3(dev, d.csr, d.source, fractions,
                                  rt::TunedAlgorithm::sssp);
  ASSERT_EQ(sweep.curve.size(), 3u);
  for (const auto& p : sweep.curve) EXPECT_GT(p.time_us, 0.0);
  EXPECT_GT(sweep.best_time_us, 0.0);
  bool best_in_set = false;
  for (const double f : fractions) best_in_set |= f == sweep.best_value;
  EXPECT_TRUE(best_in_set);
}

TEST(Tuner, MonitorSweepRuns) {
  const auto d = graph::gen::make_dataset_scaled_to(graph::gen::DatasetId::p2p, 8000);
  simt::Device dev;
  const std::vector<std::uint32_t> intervals{1, 2, 8};
  const auto sweep = rt::sweep_monitor_interval(dev, d.csr, d.source, intervals,
                                                rt::TunedAlgorithm::bfs);
  ASSERT_EQ(sweep.curve.size(), 3u);
}

}  // namespace
