// Fleet serving (PR-8): ClusterSpec/Fleet construction, placement decisions,
// deterministic routing across sim-thread counts and around busy devices,
// replica failover vs the CPU oracles, sharded execution equality, and
// Session's opaque GraphId registration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/algorithms.h"
#include "api/session.h"
#include "conformance_corpus.h"
#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/sssp_serial.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"
#include "service/placement.h"
#include "simt/cluster.h"
#include "simt/exec_pool.h"
#include "simt/fault.h"
#include "simt/profiler.h"
#include "trace/counters.h"

namespace {

graph::Csr test_graph(std::uint64_t seed = 1) {
  graph::gen::RmatParams rm;
  rm.scale = 9;
  rm.edges_per_node = 8;
  rm.seed = seed;
  return graph::gen::rmat(rm);
}

svc::ServiceOptions plain_options() {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  return opts;
}

std::vector<svc::QueryOutcome> run_bfs_stream(svc::GraphService& service,
                                              svc::GraphId gid,
                                              std::size_t n_queries) {
  const std::uint32_t n = service.graph(gid).num_nodes();
  for (std::size_t i = 0; i < n_queries; ++i) {
    svc::QueryRequest req;
    req.graph = gid;
    req.algo = svc::Algo::bfs;
    req.source = static_cast<graph::NodeId>((i * 37) % n);
    EXPECT_TRUE(service.submit(std::move(req)));
  }
  auto out = service.drain();
  std::sort(out.begin(), out.end(),
            [](const svc::QueryOutcome& a, const svc::QueryOutcome& b) {
              return a.id < b.id;
            });
  return out;
}

// ---- ClusterSpec / Fleet ----

TEST(ClusterSpecTest, EmptySpecMeansOneDefaultDevice) {
  simt::ClusterSpec spec;
  EXPECT_TRUE(spec.empty());
  EXPECT_EQ(spec.num_devices(), 1u);
  simt::Fleet fleet(spec);
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet.device(0).ordinal(), 0u);
  EXPECT_TRUE(fleet.healthy(0));
}

TEST(ClusterSpecTest, HomogeneousStampsOrdinalsAndLabels) {
  simt::Fleet fleet(simt::ClusterSpec::homogeneous(3));
  ASSERT_EQ(fleet.size(), 3u);
  for (simt::DeviceIndex d = 0; d < 3; ++d) {
    EXPECT_EQ(fleet.device(d).ordinal(), d);
    EXPECT_EQ(fleet.device(d).label(), "dev" + std::to_string(d));
  }
  EXPECT_EQ(fleet.num_healthy(), 3u);
  EXPECT_EQ(fleet.makespan_us(), 0.0);
}

TEST(ClusterSpecTest, HeterogeneousBuilderKeepsOrderAndNames) {
  simt::ClusterSpec spec;
  spec.add_device(simt::DeviceProps::fermi_c2070())
      .add_device(simt::DeviceProps::fermi_c2070(),
                  simt::TimingModel::fermi_default(), "big");
  simt::Fleet fleet(spec);
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet.device(0).label(), "dev0");
  EXPECT_EQ(fleet.device(1).label(), "big");
}

TEST(ClusterSpecTest, FleetMakespanIsMaxOverDevices) {
  simt::Fleet fleet(simt::ClusterSpec::homogeneous(2));
  fleet.device(1).account_host_compute(125.0);
  EXPECT_DOUBLE_EQ(fleet.makespan_us(), 125.0);
}

// ---- placement ----

TEST(PlacementTest, SmallGraphReplicatesEverywhere) {
  const auto csr = test_graph();
  simt::Fleet fleet(simt::ClusterSpec::homogeneous(4));
  const auto plan =
      svc::plan_placement(csr, true, fleet, svc::PlacementPolicy{});
  EXPECT_TRUE(plan.replicated());
  EXPECT_EQ(plan.replicas.size(), 4u);
}

TEST(PlacementTest, ReplicationFactorCapsReplicaSet) {
  const auto csr = test_graph();
  simt::Fleet fleet(simt::ClusterSpec::homogeneous(4));
  svc::PlacementPolicy policy;
  policy.replication = 2;
  const auto plan = svc::plan_placement(csr, true, fleet, policy);
  EXPECT_TRUE(plan.replicated());
  EXPECT_EQ(plan.replicas.size(), 2u);
}

TEST(PlacementTest, OversizedGraphShards) {
  const auto csr = test_graph();
  const std::uint64_t bytes = svc::device_graph_bytes(csr, true);
  simt::DeviceProps small = simt::DeviceProps::fermi_c2070();
  small.global_mem_bytes = bytes;  // < headroom * bytes
  simt::Fleet fleet(simt::ClusterSpec::homogeneous(4, small));
  const auto plan =
      svc::plan_placement(csr, true, fleet, svc::PlacementPolicy{});
  ASSERT_FALSE(plan.replicated());
  ASSERT_GE(plan.shards.size(), 2u);
  // Shards tile [0, n) contiguously.
  graph::NodeId row = 0;
  std::uint64_t edges = 0;
  for (const auto& s : plan.shards) {
    EXPECT_EQ(s.row_begin, row);
    EXPECT_GT(s.row_end, s.row_begin);
    row = s.row_end;
    edges += s.edges;
  }
  EXPECT_EQ(row, csr.num_nodes);
  EXPECT_EQ(edges, csr.num_edges());
}

TEST(PlacementTest, ShardSliceKeepsGlobalIdSpace) {
  const auto csr = test_graph();
  const auto slice = svc::shard_slice(csr, 100, 300);
  EXPECT_EQ(slice.num_nodes, csr.num_nodes);
  for (graph::NodeId v = 0; v < csr.num_nodes; ++v) {
    const auto want = (v >= 100 && v < 300)
                          ? csr.row_offsets[v + 1] - csr.row_offsets[v]
                          : 0;
    EXPECT_EQ(slice.row_offsets[v + 1] - slice.row_offsets[v], want);
  }
}

// ---- router determinism across sim-thread counts ----

TEST(FleetRoutingTest, BitIdenticalAcrossSimThreads) {
  struct Snapshot {
    std::vector<std::uint32_t> device;
    std::vector<bool> failover;
    std::vector<std::vector<std::uint32_t>> levels;
    double makespan = 0;
    std::string counters;
  };
  auto run = [&](int threads) {
    simt::ExecPool::set_threads(threads);
    auto& reg = trace::CounterRegistry::instance();
    reg.set_enabled(true);
    reg.reset();
    svc::ServiceOptions opts = plain_options();
    opts.cache_bytes = 16 << 20;  // exercise cache + collapse paths too
    opts.collapse = true;
    svc::GraphService service(opts, simt::ClusterSpec::homogeneous(3));
    const auto gid =
        service.add_graph(adaptive::Graph::from_csr(test_graph()));
    service.set_fault_plan(simt::FaultPlan::parse("dead.after=4"), 0);
    const auto outcomes = run_bfs_stream(service, gid, 48);
    Snapshot snap;
    for (const auto& out : outcomes) {
      EXPECT_EQ(out.status, adaptive::Status::ok);
      snap.device.push_back(out.device);
      snap.failover.push_back(out.failover);
      snap.levels.push_back(out.bfs().level);
    }
    snap.makespan = service.makespan_us();
    snap.counters = reg.to_json();
    reg.set_enabled(false);
    return snap;
  };
  const auto serial = run(1);
  const auto four = run(4);
  simt::ExecPool::set_threads(0);  // back to env/default resolution
  const auto pool = run(0);
  simt::ExecPool::set_threads(1);

  EXPECT_EQ(serial.device, four.device);
  EXPECT_EQ(serial.device, pool.device);
  EXPECT_EQ(serial.failover, four.failover);
  EXPECT_EQ(serial.failover, pool.failover);
  EXPECT_EQ(serial.levels, four.levels);
  EXPECT_EQ(serial.levels, pool.levels);
  EXPECT_DOUBLE_EQ(serial.makespan, four.makespan);
  EXPECT_DOUBLE_EQ(serial.makespan, pool.makespan);
  EXPECT_EQ(serial.counters, four.counters);
  EXPECT_EQ(serial.counters, pool.counters);
}

TEST(FleetRoutingTest, BusyDeviceSendsTheNextQueryToAnIdleReplica) {
  // After the first query, device 0 still has idle streams, but its SMs are
  // busy: the second query goes to device 1, and the third to the device
  // whose work ends first (ties: device 0).
  svc::GraphService service(plain_options(), simt::ClusterSpec::homogeneous(2));
  const auto gid = service.add_graph(adaptive::Graph::from_csr(test_graph()));
  const auto outcomes = run_bfs_stream(service, gid, 3);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& out : outcomes) ASSERT_TRUE(out.ok());
  EXPECT_EQ(outcomes[0].device, 0u);
  EXPECT_EQ(outcomes[1].device, 1u);
  EXPECT_EQ(outcomes[1].start_us, outcomes[0].start_us);
  EXPECT_EQ(outcomes[2].device,
            outcomes[0].finish_us <= outcomes[1].finish_us ? 0u : 1u);
}

// ---- replica failover vs the CPU oracles over the shared corpus ----

TEST(FleetFailoverTest, FailoverMatchesOraclesOnCorpus) {
  for (const auto& gc : testutil::conformance_corpus()) {
    if (gc.csr.num_nodes == 0) continue;
    svc::GraphService service(plain_options(),
                              simt::ClusterSpec::homogeneous(2));
    const auto gid =
        service.add_graph(adaptive::Graph::from_csr(graph::Csr(gc.csr)));
    // Device 0 dies almost immediately; every query must complete on the
    // replica, never on the CPU fallback.
    service.set_fault_plan(simt::FaultPlan::parse("dead.after=1"), 0);
    const graph::NodeId src = graph::suggest_source(gc.csr);
    {
      svc::QueryRequest req;
      req.graph = gid;
      req.algo = svc::Algo::bfs;
      req.source = src;
      ASSERT_TRUE(service.submit(std::move(req)));
    }
    {
      svc::QueryRequest req;
      req.graph = gid;
      req.algo = svc::Algo::cc;
      ASSERT_TRUE(service.submit(std::move(req)));
    }
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 2u) << gc.name;
    for (const auto& out : outcomes) {
      ASSERT_EQ(out.status, adaptive::Status::ok) << gc.name;
      EXPECT_FALSE(out.degraded) << gc.name;
      if (out.algo == svc::Algo::bfs) {
        EXPECT_EQ(out.bfs().level, cpu::bfs(gc.csr, src).level) << gc.name;
      } else {
        const auto want = cpu::connected_components(gc.csr);
        EXPECT_EQ(out.cc().component, want.component) << gc.name;
        EXPECT_EQ(out.cc().num_components, want.num_components) << gc.name;
      }
    }
    EXPECT_FALSE(service.device_healthy(0)) << gc.name;
    EXPECT_TRUE(service.device_healthy(1)) << gc.name;
  }
}

TEST(FleetFailoverTest, AllDevicesDeadDegradesToCpu) {
  svc::GraphService service(plain_options(),
                            simt::ClusterSpec::homogeneous(2));
  const auto csr = test_graph();
  const auto gid =
      service.add_graph(adaptive::Graph::from_csr(graph::Csr(csr)));
  service.set_fault_plan_all(simt::FaultPlan::parse("dead.after=1"));
  const auto outcomes = run_bfs_stream(service, gid, 4);
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    ASSERT_EQ(out.status, adaptive::Status::ok);
    EXPECT_TRUE(out.degraded);
    // Outcomes are id-sorted, so index i is submission order; the stream
    // helper picked source (i * 37) % n.
    const auto src = static_cast<graph::NodeId>((i * 37) % csr.num_nodes);
    EXPECT_EQ(out.bfs().level, cpu::bfs(csr, src).level);
  }
}

// ---- sharded execution equality ----

TEST(ShardedTest, BfsAndCcMatchSingleDevice) {
  // Edges-dominated graph: per-slice row-offset overhead (full n rows) stays
  // small relative to the edge share, so shards genuinely save memory.
  graph::gen::RmatParams rm;
  rm.scale = 12;
  rm.edges_per_node = 16;
  rm.seed = 7;
  const auto csr = graph::gen::rmat(rm);
  const std::uint64_t bytes = svc::device_graph_bytes(csr, true);

  svc::GraphService single(plain_options(), simt::ClusterSpec::single());
  const auto sgid =
      single.add_graph(adaptive::Graph::from_csr(graph::Csr(csr)));

  // One byte below the replicated threshold (headroom 2.0 needs 2x bytes
  // free): the planner must shard, and has room for each slice plus its
  // lazy local symmetric closure (cc).
  simt::DeviceProps small = simt::DeviceProps::fermi_c2070();
  small.global_mem_bytes = 2 * bytes - 1;
  svc::GraphService sharded(plain_options(),
                            simt::ClusterSpec::homogeneous(4, small));
  const auto gid =
      sharded.add_graph(adaptive::Graph::from_csr(graph::Csr(csr)));
  ASSERT_FALSE(sharded.placement(gid).replicated());

  auto query = [](svc::GraphService& s, svc::GraphId g, svc::Algo algo,
                  graph::NodeId src,
                  const adaptive::Policy& policy = adaptive::Policy{}) {
    svc::QueryRequest req;
    req.graph = g;
    req.algo = algo;
    req.source = src;
    req.policy = policy;
    EXPECT_TRUE(s.submit(std::move(req)));
    auto out = s.drain();
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, adaptive::Status::ok);
    return out[0];
  };

  for (const graph::NodeId src : {0u, 17u, 300u}) {
    const auto want = query(single, sgid, svc::Algo::bfs, src);
    const auto got = query(sharded, gid, svc::Algo::bfs, src);
    EXPECT_TRUE(got.sharded);
    EXPECT_FALSE(got.degraded);
    EXPECT_EQ(got.bfs().level, want.bfs().level);
  }
  // Each shard's CC runs under the query's policy, as a single-device query
  // would: the adaptive policy starts with the serving path's init kernel,
  // a fixed one launches its variant's kernels and no init.
  const std::vector<svc::ShardRange>& shards = sharded.placement(gid).shards;
  ASSERT_GE(shards.size(), 2u);
  for (const adaptive::Policy& policy :
       {adaptive::Policy::adapt(), adaptive::Policy::fixed("U_T_BM")}) {
    const bool fixed = policy.mode == adaptive::Policy::Mode::fixed_variant;
    std::vector<std::unique_ptr<simt::Profiler>> profilers;
    for (const svc::ShardRange& r : shards) {
      profilers.push_back(
          std::make_unique<simt::Profiler>(sharded.fleet().device(r.device)));
    }
    const auto want_cc = query(single, sgid, svc::Algo::cc, 0, policy);
    const auto got_cc = query(sharded, gid, svc::Algo::cc, 0, policy);
    EXPECT_TRUE(got_cc.sharded);
    EXPECT_FALSE(got_cc.degraded);
    EXPECT_EQ(got_cc.cc().component, want_cc.cc().component);
    EXPECT_EQ(got_cc.cc().num_components, want_cc.cc().num_components);
    for (std::size_t i = 0; i < profilers.size(); ++i) {
      const auto entries = profilers[i]->entries();
      const auto init = entries.find("cc.init");
      if (fixed) {
        EXPECT_EQ(init, entries.end()) << "shard " << i;
        EXPECT_EQ(entries.count("cc.compute.T_BM"), 1u) << "shard " << i;
      } else {
        ASSERT_NE(init, entries.end()) << "shard " << i;
        EXPECT_EQ(init->second.launches, 1u) << "shard " << i;
      }
    }
  }
}

// ---- Session: opaque GraphId registration ----

TEST(SessionGraphIdTest, RegisterReturnsStableOpaqueId) {
  adaptive::Session session;
  const auto g = adaptive::Graph::from_csr(test_graph(5));
  const adaptive::GraphId id = session.register_graph(g);
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(session.is_registered(g));
  EXPECT_TRUE(session.is_registered(id));
  EXPECT_EQ(session.graph_id(g), id);
  EXPECT_EQ(session.register_graph(g), id);  // idempotent

  const auto by_ref = session.bfs(g, 0);
  const auto by_id = session.bfs(id, 0);
  ASSERT_TRUE(by_ref.ok());
  EXPECT_EQ(by_ref.level, by_id.level);

  session.unregister_graph(id);
  EXPECT_FALSE(session.is_registered(g));
  EXPECT_EQ(session.graph_id(g), 0u);
}

TEST(SessionGraphIdTest, CopyIsADistinctRegistrableIdentity) {
  const auto g = adaptive::Graph::from_csr(test_graph(6));
  const adaptive::Graph copy = g;
  EXPECT_NE(g.uid(), copy.uid());
  adaptive::Session session;
  const auto id_g = session.register_graph(g);
  const auto id_copy = session.register_graph(copy);
  EXPECT_NE(id_g, id_copy);
  EXPECT_EQ(session.num_registered(), 2u);
}

TEST(SessionGraphIdTest, MoveKeepsIdentity) {
  auto g = adaptive::Graph::from_csr(test_graph(6));
  const std::uint64_t uid = g.uid();
  const adaptive::Graph moved = std::move(g);
  EXPECT_EQ(moved.uid(), uid);
}

// The address-reuse aliasing regression: with address-based cache keys, a new
// graph allocated where a destroyed one lived could be served the dead
// graph's cached answers. uid-based keys make collisions impossible — a
// fresh object never shares a uid, wherever it lives.
TEST(SessionGraphIdTest, RecreatedGraphCannotAliasCachedResults) {
  adaptive::Session session;
  session.enable_result_cache(16 << 20);
  auto slot = std::make_unique<adaptive::Graph>(
      adaptive::Graph::from_edges(3, {{0, 1}, {1, 2}}));
  session.register_graph(*slot);
  const auto first = session.bfs(*slot, 0);
  ASSERT_TRUE(first.ok());
  session.unregister_graph(*slot);
  // Recreate a *different* graph, plausibly at the recycled address.
  slot = std::make_unique<adaptive::Graph>(
      adaptive::Graph::from_edges(3, {{0, 2}, {2, 1}}));
  session.register_graph(*slot);
  const auto second = session.bfs(*slot, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.level, (std::vector<std::uint32_t>{0, 2, 1}));
  session.unregister_graph(*slot);
}

TEST(SessionFleetTest, QueriesBalanceAndFailOver) {
  adaptive::Session session(simt::ClusterSpec::homogeneous(2));
  EXPECT_EQ(session.num_devices(), 2u);
  const auto g = adaptive::Graph::from_csr(test_graph(8));
  session.register_graph(g);

  // Two back-to-back queries land on different devices (earliest-ready
  // routing): both device clocks advance.
  const auto a = session.bfs(g, 0);
  const auto b = session.bfs(g, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(session.fleet().device(0).makespan_us(), 0.0);
  EXPECT_GT(session.fleet().device(1).makespan_us(), 0.0);

  // Kill device 0: queries keep succeeding, un-degraded, on device 1.
  session.fleet().device(0).set_fault_plan(
      simt::FaultPlan::parse("dead.after=1"));
  for (int i = 0; i < 3; ++i) {
    const auto r = session.bfs(g, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.level, cpu::bfs(g.csr(), 0).level);
  }

  // Kill device 1 too: the CPU oracle answers, flagged degraded.
  session.fleet().device(1).set_fault_plan(
      simt::FaultPlan::parse("dead.after=1"));
  const auto r = session.bfs(g, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.level, cpu::bfs(g.csr(), 0).level);
}

// ---- error message context ----

TEST(ErrorMessageTest, ResultCarriesCodeAndContext) {
  adaptive::Result<adaptive::BfsResult> r;
  r.status = adaptive::Status::error;
  r.code = adaptive::ErrorCode::device_lost;
  EXPECT_EQ(r.error_message(), "device_lost: device permanently lost");
  r.error = "no healthy replica for graph 1";
  EXPECT_EQ(r.error_message(), "device_lost: no healthy replica for graph 1");
}

}  // namespace
