// Delta-aware cache invalidation (ISSUE 9): after a batched mutation, only
// entries whose source component intersects the delta are evicted; the
// survivors are re-keyed to the new version and keep hitting — and a stale
// answer is never served, proven against CPU oracles computed at each
// query's submission point.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/prng.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "graph/delta.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"
#include "trace/counters.h"

namespace {

// K disjoint 16-node communities (dense enough that single-arc deletes keep
// them connected): the shape delta-aware invalidation is built for — a
// delta in one community provably cannot move answers rooted in another.
graph::Csr communities(std::uint32_t k) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t c = 0; c < k; ++c) {
    const graph::NodeId base = c * 16;
    for (graph::NodeId u = 0; u < 16; ++u) {
      for (graph::NodeId v = 0; v < 16; ++v) {
        if (u != v) edges.push_back({base + u, base + v});
      }
    }
  }
  return graph::csr_from_edges(k * 16, edges);
}

svc::QueryRequest bfs_req(svc::GraphId gid, graph::NodeId source) {
  svc::QueryRequest req;
  req.algo = svc::Algo::bfs;
  req.graph = gid;
  req.source = source;
  return req;
}

svc::ServiceOptions cached_opts() {
  svc::ServiceOptions opts;
  opts.cache_bytes = 8u << 20;
  opts.batch_bfs = false;  // one entry per query, easier accounting
  return opts;
}

TEST(CacheInvalidation, ExactKeepSetAcrossDelta) {
  svc::GraphService service(cached_opts());
  const auto gid = service.add_graph(
      adaptive::Graph::from_csr(communities(4)));

  // Warm one BFS entry per community plus one whole-graph CC entry.
  for (std::uint32_t c = 0; c < 4; ++c) service.submit(bfs_req(gid, c * 16));
  svc::QueryRequest ccq;
  ccq.algo = svc::Algo::cc;
  ccq.graph = gid;
  service.submit(ccq);
  for (const auto& out : service.drain()) ASSERT_TRUE(out.ok());
  ASSERT_EQ(service.result_cache().entries(), 5u);

  // Delete one arc inside community 2.
  graph::EdgeDelta d;
  d.deletes.push_back({2 * 16, 2 * 16 + 1});
  service.submit_mutation(gid, d);
  for (const auto& out : service.drain()) ASSERT_TRUE(out.ok());

  // Exactly the community-2 BFS entry and the whole-graph CC entry drop.
  const auto& stats = service.result_cache().stats();
  EXPECT_EQ(stats.delta_kept, 3u);
  EXPECT_EQ(stats.delta_dropped, 2u);
  EXPECT_EQ(service.result_cache().entries(), 3u);

  // The survivors hit under the new version; the dropped ones miss and
  // recompute correctly.
  const graph::Csr now = service.graph(gid).csr();
  for (std::uint32_t c = 0; c < 4; ++c) service.submit(bfs_req(gid, c * 16));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(outcomes[c].cached, c != 2) << "community " << c;
    EXPECT_EQ(outcomes[c].bfs().level, cpu::bfs(now, c * 16).level);
  }
}

TEST(CacheInvalidation, DeltaKeepCounterAndInsertTouchRules) {
  auto& reg = trace::CounterRegistry::instance();
  reg.set_enabled(true);
  reg.reset();
  svc::GraphService service(cached_opts());
  const auto gid = service.add_graph(
      adaptive::Graph::from_csr(communities(3)));
  for (std::uint32_t c = 0; c < 3; ++c) service.submit(bfs_req(gid, c * 16));
  service.drain();

  // An insert bridging communities 0 and 1 invalidates both of their
  // entries (the arc could extend either side's reachable set); community
  // 2 survives and bumps svc.cache.delta_keep.
  graph::EdgeDelta d;
  d.inserts.push_back({0, 16});
  service.submit_mutation(gid, d);
  service.drain();
  EXPECT_EQ(service.result_cache().stats().delta_kept, 1u);
  EXPECT_EQ(service.result_cache().stats().delta_dropped, 2u);
  EXPECT_EQ(reg.counter_value("svc.cache.delta_keep"), 1.0);
  EXPECT_EQ(reg.counter_value("svc.mutate"), 1.0);
  reg.set_enabled(false);
}

// Regression: a delete touching a cached BFS source must evict that entry
// even when the component stays connected (levels can still change).
TEST(CacheInvalidation, DeleteTouchingCachedSourceEvictsIt) {
  svc::GraphService service(cached_opts());
  const auto gid = service.add_graph(
      adaptive::Graph::from_csr(communities(2)));
  service.submit(bfs_req(gid, 0));
  service.drain();
  ASSERT_EQ(service.result_cache().entries(), 1u);

  graph::EdgeDelta d;
  d.deletes.push_back({0, 1});  // incident to the cached source
  service.submit_mutation(gid, d);
  service.drain();
  EXPECT_EQ(service.result_cache().entries(), 0u);

  service.submit(bfs_req(gid, 0));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].cached);
  EXPECT_EQ(outcomes[0].bfs().level,
            cpu::bfs(service.graph(gid).csr(), 0).level);
}

// Regression: update_graph must retire the replaced graph's incremental CC
// labels. Kept, they describe the old partition: the new graph's labels read
// wrong, and a later delta keeps a cached answer that it changed.
TEST(CacheInvalidation, UpdateGraphRetiresIncrementalCcLabels) {
  const auto undirected = [](std::vector<graph::Edge> edges) {
    std::vector<graph::Edge> arcs;
    for (const graph::Edge& e : edges) {
      arcs.push_back(e);
      arcs.push_back({e.dst, e.src});
    }
    return adaptive::Graph::from_csr(graph::csr_from_edges(6, arcs));
  };
  svc::GraphService service(cached_opts());
  const auto gid =
      service.add_graph(undirected({{0, 1}, {1, 2}, {3, 4}, {4, 5}}));
  graph::EdgeDelta bridge;  // builds the labels: {0 1 2} {3 4 5}
  bridge.inserts.push_back({0, 2});
  service.submit_mutation(gid, bridge);
  for (const auto& out : service.drain()) ASSERT_TRUE(out.ok());

  service.update_graph(gid,
                       undirected({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));
  EXPECT_EQ(service.incremental_cc(gid).labels(),
            cpu::connected_components(service.graph(gid).csr()).component);

  service.submit(bfs_req(gid, 0));
  for (const auto& out : service.drain()) ASSERT_TRUE(out.ok());
  graph::EdgeDelta cut;  // 4 and 5 become unreachable from 0
  cut.deletes.push_back({3, 4});
  cut.deletes.push_back({4, 3});
  service.submit_mutation(gid, cut);
  service.submit(bfs_req(gid, 0));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_FALSE(outcomes[1].cached);
  EXPECT_EQ(outcomes[1].bfs().level,
            cpu::bfs(service.graph(gid).csr(), 0).level);
}

// No stale hit, ever: a randomized read/mutate stream where every ok BFS
// answer — cached, collapsed, or computed — must equal the CPU oracle on
// the graph as of that query's admission point (mutations apply FIFO).
TEST(CacheInvalidation, RandomizedStreamNeverServesStaleAnswers) {
  svc::GraphService service(cached_opts());
  graph::Csr mirror = communities(5);
  const auto gid =
      service.add_graph(adaptive::Graph::from_csr(mirror));
  agg::Prng prng(42);
  std::map<svc::QueryId, std::vector<std::uint32_t>> expected;

  std::size_t checked = 0, hits = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 20; ++i) {
      if (prng.bernoulli(0.2)) {
        graph::EdgeDelta d;
        // Localized: one random delete + one random insert inside a single
        // random community, so other communities' entries keep surviving.
        const std::uint32_t c =
            static_cast<std::uint32_t>(prng.bounded(5)) * 16;
        const auto a = static_cast<graph::NodeId>(prng.bounded(16));
        auto b = static_cast<graph::NodeId>(prng.bounded(16));
        if (b == a) b = (b + 1) % 16;
        // Delete an existing arc of the community if one remains.
        bool deleted = false;
        for (std::uint32_t e = mirror.row_offsets[c + a];
             e < mirror.row_offsets[c + a + 1]; ++e) {
          d.deletes.push_back({c + a, mirror.col_indices[e]});
          deleted = true;
          break;
        }
        d.inserts.push_back({c + a, c + b});
        if (!deleted && d.inserts.empty()) continue;
        mirror = graph::apply_delta(mirror, d);
        ASSERT_TRUE(service.submit_mutation(gid, d).has_value());
      } else {
        const auto src =
            static_cast<graph::NodeId>(prng.bounded(mirror.num_nodes));
        const auto id = service.submit(bfs_req(gid, src));
        ASSERT_TRUE(id.has_value());
        expected[*id] = cpu::bfs(mirror, src).level;
      }
    }
    for (const auto& out : service.drain()) {
      ASSERT_TRUE(out.ok());
      if (out.mutation) continue;
      const auto it = expected.find(out.id);
      ASSERT_NE(it, expected.end());
      ASSERT_EQ(out.bfs().level, it->second)
          << "query " << out.id << " (cached=" << out.cached
          << " collapsed=" << out.collapsed << ")";
      ++checked;
      hits += out.cached;
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(hits, 0u);  // the cache did serve across deltas
  EXPECT_GT(service.result_cache().stats().delta_kept, 0u);
}

}  // namespace
