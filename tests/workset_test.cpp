#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/multi_source_engine.h"
#include "gpu_graph/cc_engine.h"
#include "gpu_graph/generic_engine.h"
#include "gpu_graph/mst_engine.h"
#include "gpu_graph/pagerank_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "gpu_graph/workset.h"
#include "graph/gen/generators.h"

namespace {

using gg::Workset;
using gg::WorksetRepr;

class WorksetTest : public ::testing::Test {
 protected:
  simt::Device dev;
};

TEST_F(WorksetTest, ConstructionZeroInitializes) {
  Workset ws(dev, 100);
  for (const auto b : ws.bitmap().host_view()) EXPECT_EQ(b, 0);
  for (const auto u : ws.update().host_view()) EXPECT_EQ(u, 0);
  EXPECT_EQ(ws.queue_len().host_view()[0], 0u);
  ws.release(dev);
}

TEST_F(WorksetTest, InitSourceBitmap) {
  Workset ws(dev, 100);
  ws.init_source(dev, 42, WorksetRepr::bitmap);
  EXPECT_EQ(ws.bitmap().host_view()[42], 1);
  EXPECT_EQ(ws.queue_len().host_view()[0], 0u);
  ws.release(dev);
}

TEST_F(WorksetTest, InitSourceQueue) {
  Workset ws(dev, 100);
  ws.init_source(dev, 42, WorksetRepr::queue);
  EXPECT_EQ(ws.queue_len().host_view()[0], 1u);
  EXPECT_EQ(ws.queue().host_view()[0], 42u);
  ws.release(dev);
}

// Sets the given update flags on the device (simulating the computation
// kernel's effect) and returns the sorted id list.
std::vector<std::uint32_t> set_updates(Workset& ws,
                                       std::initializer_list<std::uint32_t> ids) {
  std::vector<std::uint32_t> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  for (const auto id : sorted) ws.update().host_view()[id] = 1;
  return sorted;
}

TEST_F(WorksetTest, GenerateBitmapSetsBitsAndClearsUpdate) {
  Workset ws(dev, 256);
  const auto updated = set_updates(ws, {3, 77, 200});
  const auto size = ws.generate(dev, WorksetRepr::bitmap, updated);
  EXPECT_EQ(size, 3u);
  for (std::uint32_t i = 0; i < 256; ++i) {
    const bool in = i == 3 || i == 77 || i == 200;
    EXPECT_EQ(ws.bitmap().host_view()[i], in ? 1 : 0) << i;
    EXPECT_EQ(ws.update().host_view()[i], 0) << i;
  }
  ws.release(dev);
}

TEST_F(WorksetTest, GenerateQueueContainsExactlyUpdatedIds) {
  Workset ws(dev, 256);
  const auto updated = set_updates(ws, {5, 9, 120, 255});
  const auto size = ws.generate(dev, WorksetRepr::queue, updated);
  EXPECT_EQ(size, 4u);
  EXPECT_EQ(ws.queue_len().host_view()[0], 4u);
  std::vector<std::uint32_t> contents(ws.queue().host_view().begin(),
                                      ws.queue().host_view().begin() + 4);
  std::sort(contents.begin(), contents.end());
  EXPECT_EQ(contents, updated);
  for (const auto u : ws.update().host_view()) EXPECT_EQ(u, 0);
  ws.release(dev);
}

TEST_F(WorksetTest, RepresentationsAreInterchangeablePerIteration) {
  // The minimal-overhead switching property: generating queue form after
  // bitmap form (from fresh update flags) yields the same logical set.
  Workset ws(dev, 128);
  auto updated = set_updates(ws, {1, 2, 64});
  ws.generate(dev, WorksetRepr::bitmap, updated);
  std::vector<std::uint32_t> from_bitmap;
  for (std::uint32_t i = 0; i < 128; ++i) {
    if (ws.bitmap().host_view()[i]) from_bitmap.push_back(i);
  }
  updated = set_updates(ws, {1, 2, 64});
  ws.generate(dev, WorksetRepr::queue, updated);
  std::vector<std::uint32_t> from_queue(
      ws.queue().host_view().begin(),
      ws.queue().host_view().begin() + ws.queue_len().host_view()[0]);
  std::sort(from_queue.begin(), from_queue.end());
  EXPECT_EQ(from_bitmap, from_queue);
  ws.release(dev);
}

TEST_F(WorksetTest, QueueGenerationSerializesOnTailCounter) {
  // The queue's atomic insertions must show up as same-address contention.
  Workset ws(dev, 4096);
  std::vector<std::uint32_t> updated(512);
  std::iota(updated.begin(), updated.end(), 0u);
  for (const auto id : updated) ws.update().host_view()[id] = 1;

  std::uint64_t max_atomic = 0;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { max_atomic = ks.max_atomic_same_addr; });
  ws.generate(dev, WorksetRepr::queue, updated);
  EXPECT_EQ(max_atomic, 512u);
  ws.release(dev);
}

TEST_F(WorksetTest, BitmapGenerationHasNoAtomics) {
  Workset ws(dev, 4096);
  std::vector<std::uint32_t> updated(512);
  std::iota(updated.begin(), updated.end(), 0u);
  for (const auto id : updated) ws.update().host_view()[id] = 1;

  double atomics = -1;
  dev.set_kernel_observer(
      [&](const simt::KernelStats& ks) { atomics = ks.atomics; });
  ws.generate(dev, WorksetRepr::bitmap, updated);
  EXPECT_EQ(atomics, 0.0);
  ws.release(dev);
}

TEST_F(WorksetTest, LargerUpdateSetCostsMoreQueueTime) {
  Workset ws(dev, 1u << 16);
  auto run = [&](std::uint32_t count) {
    std::vector<std::uint32_t> updated(count);
    std::iota(updated.begin(), updated.end(), 0u);
    for (const auto id : updated) ws.update().host_view()[id] = 1;
    const double t0 = dev.now_us();
    ws.generate(dev, WorksetRepr::queue, updated);
    return dev.now_us() - t0;
  };
  EXPECT_LT(run(100), run(20000));
  ws.release(dev);
}

TEST_F(WorksetTest, ChargesAreAccountedOnDeviceClock) {
  Workset ws(dev, 1000);
  const double t0 = dev.now_us();
  ws.charge_termination_readback(dev);
  const double t1 = dev.now_us();
  ws.charge_bitmap_count_kernel(dev);
  const double t2 = dev.now_us();
  EXPECT_GT(t1, t0);
  // The monitoring kernel costs more than a scalar readback (Sec. VI.E:
  // "This overhead is much greater than that of the decision maker").
  EXPECT_GT(t2 - t1, t1 - t0);
  ws.release(dev);
}

TEST_F(WorksetTest, EmptyGenerateIsValid) {
  Workset ws(dev, 64);
  const auto size = ws.generate(dev, WorksetRepr::queue, {});
  EXPECT_EQ(size, 0u);
  EXPECT_EQ(ws.queue_len().host_view()[0], 0u);
  ws.release(dev);
}

// EngineOptions::scan_queue_gen chooses how every engine generates its
// queue: under a fixed queue variant each generation is the scan kernel.
class ScanQueueGen : public ::testing::TestWithParam<std::string> {};

TEST_P(ScanQueueGen, QueueVariantGeneratesOnlyByScan) {
  graph::Csr g = graph::symmetrize(graph::gen::erdos_renyi(2000, 6000, 17));
  graph::assign_symmetric_uniform_weights(g, 1, 100, 3);
  simt::Device dev;
  std::uint64_t by_scan = 0;
  std::uint64_t by_atomic = 0;
  dev.set_kernel_observer([&](const simt::KernelStats& ks) {
    const std::string_view name = ks.name;
    if (name == "workset_gen.queue_scan") ++by_scan;
    if (name == "workset_gen.queue") ++by_atomic;
  });
  gg::EngineOptions opts;
  opts.scan_queue_gen = true;
  const gg::Variant v = gg::parse_variant("U_T_QU");
  const std::string& engine = GetParam();
  if (engine == "bfs") {
    gg::run_bfs(dev, g, 0, v, opts);
  } else if (engine == "sssp") {
    gg::run_sssp(dev, g, 0, v, opts);
  } else if (engine == "cc") {
    gg::run_cc(dev, g, v, opts);
  } else if (engine == "pagerank") {
    gg::PageRankOptions pr;
    pr.engine = opts;
    gg::run_pagerank(dev, g, v, pr);
  } else if (engine == "mst") {
    gg::run_mst(dev, g, v, opts);
  } else if (engine == "bfs_multi") {
    const std::vector<graph::NodeId> sources{0, 1, 2};
    gg::run_bfs_multi(dev, g, sources, gg::fixed_variant(v), opts);
  } else {
    static constexpr simt::Site kRows{0, "t.rows"};
    static constexpr simt::Site kEdges{1, "t.edges"};
    gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, g, false);
    std::vector<std::uint8_t> seen(g.num_nodes, 0);
    seen[0] = 1;
    const auto reach = [&](simt::ThreadCtx& ctx, std::uint32_t id,
                           std::uint32_t offset, std::uint32_t step,
                           gg::Push& push) {
      const std::uint32_t begin = ctx.load(dg.row_offsets, id, kRows);
      const std::uint32_t end = ctx.load(dg.row_offsets, id + 1, kRows);
      for (std::uint32_t e = begin + offset; e < end; e += step) {
        const std::uint32_t t = ctx.load(dg.col_indices, e, kEdges);
        if (seen[t] == 0) {
          seen[t] = 1;
          push.mark(t);
        }
      }
    };
    gg::run_frontier(dev, g, dg, {0}, reach, gg::fixed_variant(v), opts);
    dg.release(dev);
  }
  EXPECT_GT(by_scan, 0u) << engine;
  EXPECT_EQ(by_atomic, 0u) << engine;
}

INSTANTIATE_TEST_SUITE_P(Engines, ScanQueueGen,
                         ::testing::Values("bfs", "sssp", "cc", "pagerank",
                                           "mst", "bfs_multi", "generic"),
                         [](const auto& info) { return info.param; });

}  // namespace
