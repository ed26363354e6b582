// GraphService: FIFO scheduling, admission control, deadlines, batched
// multi-source BFS, and stream determinism (DESIGN.md "Serving layer").
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cpu/bfs_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"
#include "simt/exec_pool.h"
#include "trace/counters.h"

namespace {

adaptive::Graph make_graph(std::uint32_t n = 2000, std::uint32_t m = 6000,
                           std::uint64_t seed = 5) {
  return adaptive::Graph::from_csr(graph::gen::erdos_renyi(n, m, seed));
}

svc::QueryRequest bfs_req(svc::GraphId gid, graph::NodeId source) {
  svc::QueryRequest req;
  req.algo = svc::Algo::bfs;
  req.graph = gid;
  req.source = source;
  return req;
}

TEST(GraphService, OutcomesArriveInFifoOrder) {
  svc::GraphService service;
  const auto gid = service.add_graph(make_graph());
  std::vector<svc::QueryId> submitted;
  for (graph::NodeId s = 0; s < 6; ++s) {
    const auto id = service.submit(bfs_req(gid, s * 7));
    ASSERT_TRUE(id.has_value());
    submitted.push_back(*id);
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), submitted.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].id, submitted[i]);
    EXPECT_TRUE(outcomes[i].ok());
  }
}

TEST(GraphService, ResultsMatchSerialReference) {
  svc::GraphService service;
  auto g = make_graph();
  g.set_uniform_weights(1, 100);
  const graph::Csr csr = g.csr();  // copy before handing over
  const auto gid = service.add_graph(std::move(g));

  auto b = bfs_req(gid, 3);
  service.submit(b);
  svc::QueryRequest s;
  s.algo = svc::Algo::sssp;
  s.graph = gid;
  s.source = 11;
  service.submit(s);
  svc::QueryRequest c;
  c.algo = svc::Algo::cc;
  c.graph = gid;
  service.submit(c);

  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].bfs().level, cpu::bfs(csr, 3).level);
  EXPECT_EQ(outcomes[1].sssp().dist, cpu::dijkstra(csr, 11).dist);
  EXPECT_TRUE(outcomes[2].ok());
}

TEST(GraphService, ConcurrencyCapBoundsStreamUse) {
  svc::ServiceOptions opts;
  opts.concurrency = 2;
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  for (graph::NodeId s = 0; s < 8; ++s) service.submit(bfs_req(gid, s));
  const auto outcomes = service.drain();
  std::set<simt::StreamId> used;
  for (const auto& out : outcomes) used.insert(out.stream);
  EXPECT_LE(used.size(), 2u);
  EXPECT_GE(used.size(), 2u);  // 8 queries should exercise both streams
}

TEST(GraphService, ConcurrencyShrinksMakespan) {
  auto run = [](std::uint32_t concurrency) {
    svc::ServiceOptions opts;
    opts.concurrency = concurrency;
    opts.batch_bfs = false;
    svc::GraphService service(opts);
    auto g = make_graph(3000, 9000, 9);
    g.set_uniform_weights(1, 50);
    const auto gid = service.add_graph(std::move(g));
    for (graph::NodeId i = 0; i < 12; ++i) {
      svc::QueryRequest req = bfs_req(gid, i * 5);
      if (i % 3 == 1) req.algo = svc::Algo::sssp;
      service.submit(req);
    }
    const auto outcomes = service.drain();
    for (const auto& out : outcomes) EXPECT_TRUE(out.ok());
    return service.makespan_us();
  };
  EXPECT_LT(run(4), run(1));
}

TEST(GraphService, RejectsWhenQueueFull) {
  svc::ServiceOptions opts;
  opts.queue_capacity = 3;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  for (graph::NodeId s = 0; s < 3; ++s) {
    EXPECT_TRUE(service.submit(bfs_req(gid, s)).has_value());
  }
  EXPECT_FALSE(service.submit(bfs_req(gid, 9)).has_value());
  EXPECT_FALSE(service.submit(bfs_req(gid, 10)).has_value());
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 5u);
  std::size_t rejected = 0;
  for (const auto& out : outcomes) {
    if (out.status == adaptive::Status::rejected) {
      ++rejected;
      EXPECT_EQ(out.code, adaptive::ErrorCode::queue_full);
    }
  }
  EXPECT_EQ(rejected, 2u);
  // Rejections never consume device time.
  EXPECT_EQ(service.pending(), 0u);
}

TEST(GraphService, DeadlineTimesOutLateQueries) {
  svc::ServiceOptions opts;
  opts.concurrency = 1;  // force queueing so later deadlines are missed
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());

  // Generous deadline: completes.
  auto ok_req = bfs_req(gid, 1);
  ok_req.deadline_us = 1e9;
  service.submit(ok_req);
  // Impossible deadline: the traversal itself overruns it.
  auto tight = bfs_req(gid, 2);
  tight.deadline_us = 1e-3;
  service.submit(tight);
  // After the first two queries the single stream is busy far past 1us, so
  // this one times out before dispatch (no device time spent).
  auto late = bfs_req(gid, 3);
  late.deadline_us = 1.0;
  service.submit(late);

  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].status, adaptive::Status::ok);
  EXPECT_EQ(outcomes[0].code, adaptive::ErrorCode::none);
  EXPECT_EQ(outcomes[1].status, adaptive::Status::timed_out);
  EXPECT_EQ(outcomes[1].code, adaptive::ErrorCode::deadline_exceeded);
  EXPECT_EQ(outcomes[2].status, adaptive::Status::timed_out);
  EXPECT_EQ(outcomes[2].code, adaptive::ErrorCode::deadline_exceeded);
  // Timed-out queries carry no payload.
  EXPECT_TRUE(std::holds_alternative<std::monostate>(outcomes[1].payload));
  // The pre-dispatch timeout never started: finish time is unset.
  EXPECT_EQ(outcomes[2].finish_us, 0.0);
}

TEST(GraphService, BatchedBfsMatchesIndependentQueries) {
  const auto csr = graph::gen::erdos_renyi(2500, 7000, 21);

  // Batching on: one drain answers all queries via a fused launch.
  svc::ServiceOptions opts;
  opts.concurrency = 1;
  svc::GraphService batched(opts);
  const auto gid = batched.add_graph(adaptive::Graph::from_csr(graph::Csr(csr)));
  for (graph::NodeId s = 0; s < 32; ++s) {
    batched.submit(bfs_req(gid, (s * 67) % csr.num_nodes));
  }
  const auto fused = batched.drain();
  ASSERT_EQ(fused.size(), 32u);

  for (std::size_t i = 0; i < fused.size(); ++i) {
    ASSERT_TRUE(fused[i].ok());
    EXPECT_EQ(fused[i].batch_size, 32u);
    const auto expected =
        cpu::bfs(csr, static_cast<graph::NodeId>((i * 67) % csr.num_nodes));
    ASSERT_EQ(fused[i].bfs().level, expected.level) << "query " << i;
  }
}

TEST(GraphService, BatchedBfsIsFasterThanSerial) {
  const auto csr = graph::gen::erdos_renyi(4000, 16000, 33);
  auto run = [&](bool batch) {
    svc::ServiceOptions opts;
    opts.concurrency = 1;
    opts.batch_bfs = batch;
    svc::GraphService service(opts);
    const auto gid =
        service.add_graph(adaptive::Graph::from_csr(graph::Csr(csr)));
    for (graph::NodeId s = 0; s < 32; ++s) {
      service.submit(bfs_req(gid, (s * 101) % csr.num_nodes));
    }
    const auto outcomes = service.drain();
    for (const auto& out : outcomes) EXPECT_TRUE(out.ok());
    return service.makespan_us();
  };
  const double serial_us = run(false);
  const double batched_us = run(true);
  // Acceptance: the fused batch at least doubles modeled throughput.
  EXPECT_LT(batched_us * 2, serial_us);
}

// The outcome of query `id` in `outs`.
const svc::QueryOutcome& outcome(const std::vector<svc::QueryOutcome>& outs,
                                 svc::QueryId id) {
  const auto it = std::find_if(outs.begin(), outs.end(),
                               [id](const svc::QueryOutcome& o) {
                                 return o.id == id;
                               });
  EXPECT_NE(it, outs.end()) << "no outcome for query " << id;
  return *it;
}

// A BFS at the head fuses every batchable BFS up to the graph's next
// mutation: other algorithms between them no longer split the batch.
TEST(GraphService, OtherAlgosDoNotSplitTheBatch) {
  svc::GraphService service;
  auto g = make_graph();
  g.set_uniform_weights(1, 10);
  const graph::Csr csr = g.csr();
  const auto gid = service.add_graph(std::move(g));
  std::vector<svc::QueryId> ids;
  for (graph::NodeId i = 0; i < 10; ++i) {
    svc::QueryRequest req = bfs_req(gid, i);
    if (i == 4) req.algo = svc::Algo::pagerank;
    if (i == 7) req.algo = svc::Algo::cc;
    ids.push_back(*service.submit(req));
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 10u);
  for (const auto& out : outcomes) EXPECT_TRUE(out.ok());
  for (graph::NodeId i = 0; i < 10; ++i) {
    const svc::QueryOutcome& out = outcome(outcomes, ids[i]);
    if (i == 4 || i == 7) {
      EXPECT_EQ(out.batch_size, 1u) << "query " << i;
    } else {
      EXPECT_EQ(out.batch_size, 8u) << "query " << i;
      EXPECT_EQ(out.bfs().level, cpu::bfs(csr, i).level) << "query " << i;
    }
  }
  // The batch dispatches at its first member's position, its members
  // together; PageRank and CC follow in FIFO order.
  EXPECT_EQ(outcomes[8].id, ids[4]);
  EXPECT_EQ(outcomes[9].id, ids[7]);
}

// A mutation of the graph ends the window: the BFS ahead of it fuse and
// answer against the old version, those behind it against the new one.
TEST(GraphService, SameGraphMutationEndsTheWindow) {
  svc::GraphService service;
  auto g = make_graph(1500, 4500, 23);
  g.set_uniform_weights(1, 10);
  const graph::Csr before = g.csr();
  const auto gid = service.add_graph(std::move(g));
  graph::EdgeDelta d;
  d.inserts.push_back({0, 1400});
  d.insert_weights.push_back(3);
  const graph::Csr after = graph::apply_delta(before, d);

  svc::QueryRequest sssp = bfs_req(gid, 5);
  sssp.algo = svc::Algo::sssp;
  const auto a = *service.submit(bfs_req(gid, 0));
  service.submit(sssp);
  const auto b = *service.submit(bfs_req(gid, 2));
  service.submit_mutation(gid, d);
  const auto c = *service.submit(bfs_req(gid, 0));
  const auto e = *service.submit(bfs_req(gid, 2));
  const auto outs = service.drain();
  ASSERT_EQ(outs.size(), 6u);
  for (const auto& out : outs) ASSERT_TRUE(out.ok());
  for (const svc::QueryId id : {a, b, c, e}) {
    EXPECT_EQ(outcome(outs, id).batch_size, 2u) << "query " << id;
  }
  EXPECT_EQ(outcome(outs, a).bfs().level, cpu::bfs(before, 0).level);
  EXPECT_EQ(outcome(outs, b).bfs().level, cpu::bfs(before, 2).level);
  EXPECT_EQ(outcome(outs, c).bfs().level, cpu::bfs(after, 0).level);
  EXPECT_EQ(outcome(outs, e).bfs().level, cpu::bfs(after, 2).level);
  EXPECT_NE(cpu::bfs(before, 0).level, cpu::bfs(after, 0).level);
}

// A mutation of another graph ends nothing: the BFS around it fuse, while
// the mutated graph's own BFS answer against their own versions.
TEST(GraphService, OtherGraphMutationKeepsTheWindow) {
  svc::GraphService service;
  const auto g1 = service.add_graph(make_graph());
  auto h = make_graph(1500, 4500, 23);
  const graph::Csr before = h.csr();
  const auto g2 = service.add_graph(std::move(h));
  graph::EdgeDelta d;
  d.inserts.push_back({0, 1400});
  const graph::Csr after = graph::apply_delta(before, d);
  const graph::Csr csr1 = service.graph(g1).csr();

  const auto a = *service.submit(bfs_req(g1, 3));
  const auto x = *service.submit(bfs_req(g2, 0));
  service.submit_mutation(g2, d);
  const auto b = *service.submit(bfs_req(g1, 8));
  const auto y = *service.submit(bfs_req(g2, 0));
  const auto outs = service.drain();
  ASSERT_EQ(outs.size(), 5u);
  for (const auto& out : outs) ASSERT_TRUE(out.ok());
  EXPECT_EQ(outcome(outs, a).batch_size, 2u);
  EXPECT_EQ(outcome(outs, b).batch_size, 2u);
  EXPECT_EQ(outcome(outs, x).batch_size, 1u);
  EXPECT_EQ(outcome(outs, y).batch_size, 1u);
  EXPECT_EQ(outcome(outs, a).bfs().level, cpu::bfs(csr1, 3).level);
  EXPECT_EQ(outcome(outs, b).bfs().level, cpu::bfs(csr1, 8).level);
  EXPECT_EQ(outcome(outs, x).bfs().level, cpu::bfs(before, 0).level);
  EXPECT_EQ(outcome(outs, y).bfs().level, cpu::bfs(after, 0).level);
}

// Members match the head's policy mode and variant: interleaved BFS under
// two policies form one batch each.
TEST(GraphService, OtherPolicyFormsItsOwnBatch) {
  svc::GraphService service;
  const auto gid = service.add_graph(make_graph());
  const graph::Csr csr = service.graph(gid).csr();
  std::vector<svc::QueryId> ids;
  for (graph::NodeId i = 0; i < 6; ++i) {
    svc::QueryRequest req = bfs_req(gid, 10 + i);
    if (i % 2) req.policy = adaptive::Policy::fixed("U_T_BM");
    ids.push_back(*service.submit(req));
  }
  const auto outs = service.drain();
  ASSERT_EQ(outs.size(), 6u);
  for (graph::NodeId i = 0; i < 6; ++i) {
    // Adaptive 0, 2, 4 first, then fixed 1, 3, 5.
    EXPECT_EQ(outs[i].id, ids[(i % 3) * 2 + i / 3]);
    const svc::QueryOutcome& out = outcome(outs, ids[i]);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.batch_size, 3u) << "query " << i;
    EXPECT_EQ(out.bfs().level, cpu::bfs(csr, 10 + i).level) << "query " << i;
  }
}

// More batchable BFS than max_batch split into batches in FIFO order; the
// queries they pass keep their order.
TEST(GraphService, WindowSplitsAtMaxBatchInFifoOrder) {
  svc::ServiceOptions opts;
  opts.max_batch = 3;
  svc::GraphService service(opts);
  auto g = make_graph();
  g.set_uniform_weights(1, 10);
  const graph::Csr csr = g.csr();
  const auto gid = service.add_graph(std::move(g));
  // B0 S1 B2 B3 S4 B5 B6 B7 B8
  std::vector<svc::QueryId> ids;
  for (graph::NodeId i = 0; i < 9; ++i) {
    svc::QueryRequest req = bfs_req(gid, 20 + i);
    if (i == 1 || i == 4) req.algo = svc::Algo::sssp;
    ids.push_back(*service.submit(req));
  }
  const auto outs = service.drain();
  ASSERT_EQ(outs.size(), 9u);
  const std::vector<std::size_t> order{0, 2, 3, 1, 4, 5, 6, 7, 8};
  const std::vector<std::uint32_t> sizes{3, 3, 3, 1, 1, 3, 3, 3, 1};
  for (std::size_t k = 0; k < order.size(); ++k) {
    const svc::QueryOutcome& out = outs[k];
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.id, ids[order[k]]) << "outcome " << k;
    EXPECT_EQ(out.batch_size, sizes[k]) << "outcome " << k;
    if (out.algo == svc::Algo::bfs) {
      const auto src = static_cast<graph::NodeId>(20 + order[k]);
      EXPECT_EQ(out.bfs().level, cpu::bfs(csr, src).level) << "outcome " << k;
    }
  }
}

// A cache hit copies an answer, so it never starts before the execution
// that stored it finishes, even one dispatched earlier in the same drain.
TEST(GraphService, CacheHitWaitsForItsAnswer) {
  svc::ServiceOptions opts;
  opts.max_batch = 2;
  svc::GraphService service(opts);
  auto g = make_graph();
  g.set_uniform_weights(1, 10);
  const graph::Csr csr = g.csr();
  const auto gid = service.add_graph(std::move(g));
  svc::QueryRequest sssp = bfs_req(gid, 3);
  sssp.algo = svc::Algo::sssp;
  service.submit(bfs_req(gid, 1));
  service.submit(bfs_req(gid, 2));
  service.submit(sssp);
  service.submit(bfs_req(gid, 1));
  const auto outs = service.drain();
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(outs[0].batch_size, 2u);
  ASSERT_TRUE(outs[3].ok());
  EXPECT_TRUE(outs[3].cached);
  EXPECT_EQ(outs[3].bfs().level, cpu::bfs(csr, 1).level);
  EXPECT_GT(outs[0].finish_us, outs[0].submit_us);
  EXPECT_DOUBLE_EQ(outs[3].start_us, outs[0].finish_us);
}

TEST(GraphService, CpuPolicyIsRefused) {
  svc::GraphService service;
  const auto gid = service.add_graph(make_graph());
  auto req = bfs_req(gid, 0);
  req.policy = adaptive::Policy::cpu();
  service.submit(req);
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, adaptive::Status::error);
  EXPECT_EQ(outcomes[0].code, adaptive::ErrorCode::invalid_argument);
  EXPECT_NE(outcomes[0].error.find("cpu_serial"), std::string::npos);
}

TEST(GraphService, CountersTrackLifecycle) {
  auto& reg = trace::CounterRegistry::instance();
  reg.set_enabled(true);
  reg.reset();

  svc::ServiceOptions opts;
  opts.queue_capacity = 4;
  svc::GraphService service(opts);
  const auto gid = service.add_graph(make_graph());
  for (graph::NodeId s = 0; s < 6; ++s) service.submit(bfs_req(gid, s));
  service.drain();

  EXPECT_EQ(reg.counter_value("svc.queued"), 4);
  EXPECT_EQ(reg.counter_value("svc.rejected"), 2);
  EXPECT_EQ(reg.counter_value("svc.completed"), 4);
  EXPECT_EQ(reg.counter_value("svc.batches"), 1);
  EXPECT_EQ(reg.counter_value("svc.batched"), 4);
  reg.set_enabled(false);
  reg.reset();
}

// The serving schedule is placed by host-sequential issue order, so modeled
// times — and therefore every outcome — are identical for any host worker
// count (the PR-1 determinism contract extended to streams).
TEST(GraphService, DeterministicAcrossSimThreads) {
  auto run = [] {
    svc::ServiceOptions opts;
    opts.concurrency = 3;
    svc::GraphService service(opts);
    auto g = make_graph(2200, 6600, 17);
    g.set_uniform_weights(1, 30);
    const auto gid = service.add_graph(std::move(g));
    for (graph::NodeId i = 0; i < 14; ++i) {
      svc::QueryRequest req = bfs_req(gid, i * 3);
      if (i % 4 == 3) req.algo = svc::Algo::sssp;
      service.submit(req);
    }
    return std::make_pair(service.drain(), service.makespan_us());
  };

  simt::ExecPool::set_threads(1);
  const auto [a, makespan_a] = run();
  simt::ExecPool::set_threads(8);
  const auto [b, makespan_b] = run();
  simt::ExecPool::set_threads(0);  // restore default

  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(makespan_a, makespan_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_DOUBLE_EQ(a[i].start_us, b[i].start_us);
    EXPECT_DOUBLE_EQ(a[i].finish_us, b[i].finish_us);
    EXPECT_EQ(a[i].payload.index(), b[i].payload.index());
  }
}

// Mixed read/mutate stream (ISSUE 9): mutations are version barriers in the
// FIFO — queries admitted before one answer against the old graph, queries
// after it against the new one — and the whole schedule is identical at any
// host worker count.
TEST(GraphService, MutationsOrderAgainstInFlightQueries) {
  auto run = [] {
    svc::ServiceOptions opts;
    opts.concurrency = 3;
    svc::GraphService service(opts);
    auto g = make_graph(1500, 4500, 23);
    const graph::Csr before = g.csr();
    const auto gid = service.add_graph(std::move(g));

    graph::EdgeDelta d;
    d.inserts.push_back({0, 1400});
    if (before.row_offsets[1] > before.row_offsets[0]) {
      d.deletes.push_back({0, before.col_indices[before.row_offsets[0]]});
    }
    const graph::Csr after = graph::apply_delta(before, d);

    const graph::NodeId src = 0;
    service.submit(bfs_req(gid, src));       // pre-mutation
    service.submit_mutation(gid, d);
    service.submit(bfs_req(gid, src));       // post-mutation, same source
    const auto outcomes = service.drain();
    return std::make_tuple(outcomes, before, after, service.makespan_us());
  };

  const auto [outs, before, after, makespan] = run();
  ASSERT_EQ(outs.size(), 3u);
  ASSERT_TRUE(outs[0].ok());
  ASSERT_TRUE(outs[1].ok());
  ASSERT_TRUE(outs[2].ok());
  EXPECT_TRUE(outs[1].mutation);
  // The pre-mutation query sees the old graph, the post-mutation one the
  // new graph — same source, different answers when the delta matters.
  EXPECT_EQ(outs[0].bfs().level, cpu::bfs(before, 0).level);
  EXPECT_EQ(outs[2].bfs().level, cpu::bfs(after, 0).level);
  // The mutation's device patch starts only after the in-flight query's
  // stream work, and the post-mutation query starts after the patch.
  EXPECT_GE(outs[1].finish_us, outs[0].finish_us);
  EXPECT_GE(outs[2].start_us, outs[1].finish_us);

  // Determinism across host worker counts, mutations included.
  simt::ExecPool::set_threads(1);
  const auto [a, ab, aa, ma] = run();
  simt::ExecPool::set_threads(4);
  const auto [b, bb, ba, mb] = run();
  simt::ExecPool::set_threads(0);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(ma, mb);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].start_us, b[i].start_us);
    EXPECT_DOUBLE_EQ(a[i].finish_us, b[i].finish_us);
    EXPECT_EQ(a[i].payload.index(), b[i].payload.index());
  }
}

// A queued mutation blocks request collapsing across it for the same graph:
// the post-mutation duplicate runs on its own and returns the new answer.
TEST(GraphService, CollapseStopsAtMutationBarrier) {
  svc::ServiceOptions opts;
  opts.cache_bytes = 1u << 20;
  opts.batch_bfs = false;
  svc::GraphService service(opts);
  auto g = make_graph(800, 2400, 31);
  const graph::Csr before = g.csr();
  const auto gid = service.add_graph(std::move(g));

  graph::EdgeDelta d;
  d.inserts.push_back({0, 799});

  service.submit(bfs_req(gid, 0));
  service.submit(bfs_req(gid, 0));  // collapses onto the first
  service.submit_mutation(gid, d);
  service.submit(bfs_req(gid, 0));  // behind the barrier: must NOT collapse
  const auto outs = service.drain();
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_FALSE(outs[0].collapsed);
  EXPECT_TRUE(outs[1].collapsed);
  EXPECT_TRUE(outs[2].mutation);
  EXPECT_FALSE(outs[3].collapsed);
  const graph::Csr after = graph::apply_delta(before, d);
  EXPECT_EQ(outs[3].bfs().level, cpu::bfs(after, 0).level);
}

}  // namespace
