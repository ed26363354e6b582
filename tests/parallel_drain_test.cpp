// Query-parallel drains (DESIGN.md "Query-parallel drains"): a drain that
// records its units ahead on the worker pool and commits them in FIFO order
// must reproduce the inline drain exactly. Each case drains a seeded history
// at one simulator thread, at four and at the default count, and compares
// everything the history produced with ==: every outcome's payload bytes,
// placement and times, every TraversalMetrics field (each iteration's
// time_us included), and every device's stats, makespan, memory in use and
// address frontier. The targeted cases also check that what they provoke
// fired: a pin by an earlier unit, a recording refused at its pin, SSSP
// committed without the CSC, no recording past a predicted pin, a batch
// fused across other queries committed while an SSSP batch runs inline, a
// cache hit, an evicted replica and, at the exec layer, a mutation between
// record and commit. An armed fault plan or an attached trace sink records
// nothing, and an interleaved BFS/SSSP history drains the same at one
// thread and at four.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/exec.h"
#include "common/prng.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"
#include "simt/exec_pool.h"
#include "trace/trace_sink.h"

namespace {

using svc::Algo;

// Exact text of a double: its bit pattern.
std::string bits(double v) {
  std::ostringstream s;
  s << std::hex << std::bit_cast<std::uint64_t>(v);
  return s.str();
}

template <typename T>
void put_all(std::ostringstream& s, const std::vector<T>& xs) {
  s << '[' << xs.size() << ':';
  for (const T x : xs) {
    if constexpr (std::is_floating_point_v<T>) {
      s << bits(static_cast<double>(x)) << ',';
    } else {
      s << static_cast<std::uint64_t>(x) << ',';
    }
  }
  s << ']';
}

void put_metrics(std::ostringstream& s, const gg::TraversalMetrics& m) {
  s << " total=" << bits(m.total_us) << " kernel=" << bits(m.kernel_us)
    << " transfer=" << bits(m.transfer_us) << " kernels=" << m.kernels
    << " simd=" << bits(m.simd_efficiency) << " edges=" << m.edges_processed
    << " switches=" << m.switches << " decisions=" << m.decisions
    << " unresolved=" << m.clock.iterations.size() << " iters=";
  for (const gg::IterationRecord& r : m.iterations) {
    s << '(' << r.iteration << ',' << r.ws_size << ','
      << gg::variant_name(r.variant) << ',' << bits(r.time_us) << ','
      << r.on_cpu << ')';
  }
}

std::string describe(const svc::QueryOutcome& o) {
  std::ostringstream s;
  s << o.id << " status=" << static_cast<int>(o.status) << " code="
    << static_cast<int>(o.code) << " retries=" << o.retries
    << " degraded=" << o.degraded << " mutation=" << o.mutation
    << " rebuilt=" << o.rebuilt << " cached=" << o.cached
    << " collapsed=" << o.collapsed << '/' << o.collapsed_into
    << " device=" << o.device << " failover=" << o.failover
    << " stream=" << o.stream << " submit=" << bits(o.submit_us)
    << " start=" << bits(o.start_us) << " finish=" << bits(o.finish_us)
    << " batch=" << o.batch_size;
  std::visit(
      [&s](const auto& r) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(r)>,
                                      std::monostate>) {
          if constexpr (requires { r.level; }) put_all(s, r.level);
          if constexpr (requires { r.dist; }) put_all(s, r.dist);
          if constexpr (requires { r.component; }) {
            put_all(s, r.component);
            s << " n=" << r.num_components;
          }
          if constexpr (requires { r.rank; }) put_all(s, r.rank);
          put_metrics(s, r.metrics);
        }
      },
      o.payload);
  return s.str();
}

std::string describe(const simt::Device& dev) {
  const simt::DeviceStats& st = dev.stats();
  std::ostringstream s;
  s << "dev" << dev.ordinal() << " kernels=" << st.kernels_launched
    << " transfers=" << st.transfers << " kernel=" << bits(st.kernel_time_us)
    << " transfer=" << bits(st.transfer_time_us)
    << " host=" << bits(st.host_time_us) << " issue=" << bits(st.issue_cycles)
    << " tx=" << bits(st.transactions) << " atomics=" << bits(st.atomics)
    << " lane=" << bits(st.lane_work) << " lockstep=" << bits(st.lockstep_work)
    << " warps=" << st.warps_executed << '/' << st.warps_uniform
    << " h2d=" << st.bytes_h2d << " d2h=" << st.bytes_d2h
    << " makespan=" << bits(dev.makespan_us()) << " mem=" << dev.mem_in_use()
    << " frontier=" << dev.mem_frontier();
  return s.str();
}

// Everything a service has produced so far beyond `outs`.
void snapshot(const svc::GraphService& service,
              const std::vector<svc::QueryOutcome>& outs,
              std::vector<std::string>& log) {
  for (const svc::QueryOutcome& o : outs) log.push_back(describe(o));
  for (simt::DeviceIndex d = 0; d < service.num_devices(); ++d) {
    log.push_back(describe(service.fleet().device(d)));
  }
  log.push_back("makespan=" + bits(service.makespan_us()));
}

adaptive::Graph rmat_graph(std::uint32_t scale) {
  graph::gen::RmatParams p;
  p.scale = scale;
  p.seed = 3;
  adaptive::Graph g = adaptive::Graph::from_csr(graph::gen::rmat(p));
  g.set_uniform_weights(1, 100);
  return g;
}

adaptive::Policy policy(int which) {
  switch (which % 4) {
    case 0:
      return adaptive::Policy::adapt();
    case 1:
      return adaptive::Policy::adapt()
          .with_direction(gg::Direction::adaptive)
          .with_representation(gg::Representation::adaptive);
    case 2:
      return adaptive::Policy::fixed("U_T_BM");
    default:
      return adaptive::Policy::fixed("U_B_QU_REL");
  }
}

struct Result {
  std::vector<std::string> log;
  svc::GraphService::RecordingStats stats;
};

// Runs `body` on a fresh service at `threads` simulator threads.
template <typename Body>
Result at_threads(int threads, const svc::ServiceOptions& opts,
                  std::size_t devices, Body&& body) {
  simt::ExecPool::set_threads(threads);
  Result r;
  {
    svc::GraphService service(opts, simt::ClusterSpec::homogeneous(devices));
    body(service, r.log);
    r.stats = service.recording_stats();
  }
  simt::ExecPool::set_threads(0);
  return r;
}

void expect_same(const Result& serial, const Result& other, int threads) {
  ASSERT_EQ(serial.log.size(), other.log.size()) << threads << " threads";
  for (std::size_t i = 0; i < serial.log.size(); ++i) {
    EXPECT_EQ(serial.log[i], other.log[i])
        << "line " << i << " at " << threads << " threads";
  }
}

// A seeded mixed history: every algorithm under four policies, sources
// repeated Zipf-like, mutations inside drains and an evict between them.
void mixed_history(svc::GraphService& service, std::vector<std::string>& log) {
  const svc::GraphId id = service.add_graph(rmat_graph(10));
  const std::uint32_t n = service.graph(id).num_nodes();
  agg::Prng rng(17);
  const auto submit = [&](int count) {
    for (int i = 0; i < count; ++i) {
      svc::QueryRequest req;
      req.graph = id;
      const std::uint64_t pick = rng.bounded(10);
      req.algo = pick < 5   ? Algo::bfs
                 : pick < 8 ? Algo::sssp
                 : pick < 9 ? Algo::cc
                            : Algo::pagerank;
      req.policy = policy(static_cast<int>(rng.bounded(4)));
      req.source = static_cast<graph::NodeId>((rng.bounded(6) * 331 + 7) % n);
      ASSERT_TRUE(service.submit(req).has_value());
    }
  };
  const auto mutate = [&](std::uint32_t salt) {
    graph::EdgeDelta d;
    for (std::uint32_t k = 0; k < 6; ++k) {
      d.inserts.push_back({(salt * 97 + k * 211) % n, (salt * 13 + k * 389 + 1) % n});
      d.insert_weights.push_back(1 + (salt + k) % 50);
    }
    ASSERT_TRUE(service.submit_mutation(id, std::move(d)).has_value());
  };
  submit(16);
  snapshot(service, service.drain(), log);
  submit(6);
  mutate(1);
  submit(8);
  snapshot(service, service.drain(), log);
  service.evict(id);
  submit(8);
  mutate(2);
  submit(6);
  snapshot(service, service.drain(), log);
}

struct Config {
  std::size_t devices;
  bool cache;
};

class ParallelDrain : public ::testing::TestWithParam<Config> {};

TEST_P(ParallelDrain, MixedHistoryIsIdenticalAtAnyThreadCount) {
  const Config c = GetParam();
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  if (!c.cache) {
    opts.cache_bytes = 0;
    opts.collapse = false;
  }
  const Result serial = at_threads(1, opts, c.devices, mixed_history);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(serial.stats.recorded, 0u);
  // The default count is usually four as well; then one run covers both.
  std::vector<int> counts{4};
  if (simt::ExecPool::threads() != 4) counts.push_back(0);
  for (const int threads : counts) {
    const Result r = at_threads(threads, opts, c.devices, mixed_history);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    expect_same(serial, r, threads);
    if (threads == 4) {
      EXPECT_GT(r.stats.recorded, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fleets, ParallelDrain,
                         ::testing::Values(Config{1, false}, Config{1, true},
                                           Config{2, false}, Config{2, true}));

// Drains `history` at one thread and at four, which must match, until
// `fired` holds for the pooled run's stats. Which units a worker reaches
// before the serving thread does depends on host timing, so a fallback may
// need a few attempts to show; the answers never do.
template <typename History, typename Fired>
void expect_fallback(const svc::ServiceOptions& opts, std::size_t devices,
                     History&& history, Fired&& fired) {
  const Result serial = at_threads(1, opts, devices, history);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  bool seen = false;
  for (int attempt = 0; attempt < 8 && !seen; ++attempt) {
    const Result pooled = at_threads(4, opts, devices, history);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    expect_same(serial, pooled, 4);
    seen = fired(pooled.stats);
  }
  EXPECT_TRUE(seen) << "the fallback never fired";
}

svc::QueryRequest query(svc::GraphId id, Algo algo, graph::NodeId source,
                        const adaptive::Policy& p) {
  svc::QueryRequest req;
  req.graph = id;
  req.algo = algo;
  req.source = source;
  req.policy = p;
  return req;
}

// A push-only query first leaves the replica steady, so the push-only
// queries behind it are recorded against a copy without the CSC. A
// direction-optimizing one among them only may pull, so it is recorded as
// well and bars nothing; it pulls, its recording is refused at the pin, and
// it pins the CSC inline. The recordings behind it are then stale.
TEST(ParallelDrainFallback, PinByAnEarlierUnit) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const adaptive::Policy push = adaptive::Policy::fixed("U_T_BM");
    const adaptive::Policy pull =
        adaptive::Policy::adapt().with_direction(gg::Direction::adaptive);
    for (graph::NodeId s = 1; s < 12; ++s) {
      ASSERT_TRUE(
          service.submit(query(id, Algo::bfs, s, s == 6 ? pull : push))
              .has_value());
    }
    snapshot(service, service.drain(), log);
  };
  expect_fallback(opts, 1, history,
                  [](const svc::GraphService::RecordingStats& st) {
                    return st.stale > 0;
                  });
}

// Direction-optimizing SSSP never pulls on this graph, so its units are
// recorded against the replica without the CSC and committed, and the CSC
// is never pinned: the device holds exactly the upload after the drain.
// Batching is off: SSSP batches run inline.
TEST(ParallelDrainFallback, SsspRecordedWithoutTheCsc) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const simt::Device& dev = service.fleet().device(0);
    const std::uint64_t uploaded = dev.mem_in_use();
    const adaptive::Policy p =
        adaptive::Policy::adapt().with_direction(gg::Direction::adaptive);
    for (graph::NodeId s = 1; s < 12; ++s) {
      ASSERT_TRUE(service.submit(query(id, Algo::sssp, s, p)).has_value());
    }
    snapshot(service, service.drain(), log);
    EXPECT_EQ(dev.mem_in_use(), uploaded) << "the drain pinned a CSC";
  };
  expect_fallback(opts, 1, history,
                  [](const svc::GraphService::RecordingStats& st) {
                    return st.committed > 0;
                  });
}

// A direction-optimizing BFS behind push-only ones is recorded without the
// CSC. It pulls, so its recording is refused at the pin, and the unit runs
// inline with the same answer.
TEST(ParallelDrainFallback, PullingRecordingIsRefused) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const adaptive::Policy push = adaptive::Policy::fixed("U_T_BM");
    const adaptive::Policy pull =
        adaptive::Policy::adapt().with_direction(gg::Direction::adaptive);
    for (graph::NodeId s = 1; s < 7; ++s) {
      ASSERT_TRUE(
          service.submit(query(id, Algo::bfs, s, s == 6 ? pull : push))
              .has_value());
    }
    snapshot(service, service.drain(), log);
  };
  expect_fallback(opts, 1, history,
                  [](const svc::GraphService::RecordingStats& st) {
                    return st.refused > 0;
                  });
}

// A cc whose closure is not resident is bound to pin it, so look-ahead
// records nothing behind it until the pin is done: no recording goes stale,
// and the units behind it are recorded once the replica is steady again.
TEST(ParallelDrainFallback, NoRecordingPastAPredictedPin) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const adaptive::Policy push = adaptive::Policy::fixed("U_T_BM");
    for (graph::NodeId s = 1; s < 16; ++s) {
      ASSERT_TRUE(service
                      .submit(s == 6 ? query(id, Algo::cc, 0,
                                             adaptive::Policy::adapt())
                                     : query(id, Algo::bfs, s, push))
                      .has_value());
    }
    snapshot(service, service.drain(), log);
  };
  const Result serial = at_threads(1, opts, 1, history);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  bool committed = false;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const Result pooled = at_threads(4, opts, 1, history);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    expect_same(serial, pooled, 4);
    EXPECT_EQ(pooled.stats.stale, 0u) << "attempt " << attempt;
    committed = committed || pooled.stats.committed > 0;
  }
  EXPECT_TRUE(committed) << "nothing was committed";
}

// BFS interleaved with SSSP fuse into one batch whose members are not
// contiguous in the queue. The look-ahead groups them as the loop does, so
// the batch is recorded with every source and committed, and no recording
// goes stale; the SSSP fuse into a batch of their own, which runs inline
// and whose members are not recorded one by one. A CC on a second graph
// leads the drain: it is bound to pin its closure, so it runs inline while
// the workers record the rest.
TEST(ParallelDrainFallback, InterleavedBatchIsCommitted) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const svc::GraphId other = service.add_graph(rmat_graph(10));
    const adaptive::Policy p = adaptive::Policy::adapt();
    // Leaves both replicas steady, so the next drain records against them.
    ASSERT_TRUE(service.submit(query(id, Algo::sssp, 1, p)).has_value());
    ASSERT_TRUE(service.submit(query(other, Algo::sssp, 1, p)).has_value());
    snapshot(service, service.drain(), log);
    ASSERT_TRUE(service.submit(query(other, Algo::cc, 0, p)).has_value());
    std::vector<svc::QueryId> bfs;
    for (graph::NodeId s = 2; s < 10; ++s) {
      const Algo algo = s % 2 ? Algo::sssp : Algo::bfs;
      const auto qid = service.submit(query(id, algo, s, p));
      ASSERT_TRUE(qid.has_value());
      if (algo == Algo::bfs) bfs.push_back(*qid);
    }
    const std::vector<svc::QueryOutcome> outs = service.drain();
    // CC, the BFS batch's four members together, then the SSSP batch's.
    ASSERT_EQ(outs.size(), 9u);
    for (std::size_t k = 0; k < bfs.size(); ++k) {
      EXPECT_EQ(outs[1 + k].id, bfs[k]);
      EXPECT_EQ(outs[1 + k].batch_size, 4u);
      EXPECT_EQ(outs[5 + k].algo, Algo::sssp);
      EXPECT_EQ(outs[5 + k].batch_size, 4u);
    }
    snapshot(service, outs, log);
  };
  const Result serial = at_threads(1, opts, 1, history);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  bool committed = false;
  for (int attempt = 0; attempt < 8 && !committed; ++attempt) {
    const Result pooled = at_threads(4, opts, 1, history);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    expect_same(serial, pooled, 4);
    EXPECT_EQ(pooled.stats.stale, 0u) << "attempt " << attempt;
    // The BFS batch alone recorded, and committed.
    EXPECT_LE(pooled.stats.recorded, 1u) << "attempt " << attempt;
    committed = pooled.stats.recorded == 1 && pooled.stats.committed == 1;
  }
  EXPECT_TRUE(committed) << "the batch was never committed";
}

// Two identical queries, collapsing and batching off: both are recorded,
// and the first one's answer turns the second into a cache hit, so its
// recording is never used.
TEST(ParallelDrainFallback, CacheHit) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.collapse = false;
  opts.batch_bfs = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const adaptive::Policy p = adaptive::Policy::adapt();
    ASSERT_TRUE(service.submit(query(id, Algo::sssp, 1, p)).has_value());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.submit(query(id, Algo::sssp, 5, p)).has_value());
      ASSERT_TRUE(service.submit(query(id, Algo::sssp, 9, p)).has_value());
    }
    snapshot(service, service.drain(), log);
  };
  expect_fallback(opts, 1, history,
                  [](const svc::GraphService::RecordingStats& st) {
                    return st.committed > 0 && st.unused > 0;
                  });
}

// After an evict, the first query re-uploads on device 0 and the queries
// behind it are recorded against that copy; those routed to device 1, still
// evicted, re-upload there inline instead.
TEST(ParallelDrainFallback, EvictedReplica) {
  svc::ServiceOptions opts;
  opts.concurrency = 2;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const adaptive::Policy p = adaptive::Policy::fixed("U_T_BM");
    service.evict(id);
    for (graph::NodeId s = 1; s < 12; ++s) {
      ASSERT_TRUE(service.submit(query(id, Algo::bfs, s, p)).has_value());
    }
    snapshot(service, service.drain(), log);
  };
  expect_fallback(opts, 2, history,
                  [](const svc::GraphService::RecordingStats& st) {
                    return st.stale > 0;
                  });
}

// A trace sink, or an armed fault plan, keeps the drain inline.
TEST(ParallelDrainFallback, SinksAndFaultPlansRunInline) {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.cache_bytes = 0;
  opts.collapse = false;
  const auto history = [](bool sink, bool faults) {
    return [sink, faults](svc::GraphService& service,
                          std::vector<std::string>& log) {
      const svc::GraphId id = service.add_graph(rmat_graph(10));
      if (faults) {
        service.set_fault_plan_all(
            simt::FaultPlan::parse("seed=5,kernel.p=0.02"));
      }
      if (sink) {
        trace::Tracer::instance().attach(std::make_unique<trace::TraceSink>());
      }
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(service
                        .submit(query(id, i % 2 ? Algo::sssp : Algo::cc,
                                      static_cast<graph::NodeId>(i),
                                      adaptive::Policy::adapt()))
                        .has_value());
      }
      snapshot(service, service.drain(), log);
      if (sink) trace::Tracer::instance().clear();
    };
  };
  for (const bool sink : {false, true}) {
    const Result serial = at_threads(1, opts, 1, history(sink, !sink));
    const Result pooled = at_threads(4, opts, 1, history(sink, !sink));
    expect_same(serial, pooled, 4);
    EXPECT_EQ(pooled.stats.recorded, 0u) << (sink ? "sink" : "fault plan");
  }
}

// The exec layer's validity check: a recording made before a mutation (the
// graph's version moves, the resident copy is patched) is not committed,
// and the inline run matches a drain that never recorded.
TEST(ParallelDrainFallback, MutationBetweenRecordAndCommit) {
  adaptive::Graph g = rmat_graph(10);
  const exec::Query q{Algo::sssp, 3, 0.85, adaptive::Policy::adapt(), 0};
  const auto delta = [&] {
    graph::EdgeDelta d;
    d.inserts.push_back({1, 2});
    d.insert_weights.push_back(7);
    return d;
  };
  std::string with_recording;
  {
    adaptive::Graph h = g;
    simt::Device dev;
    exec::Resident res;
    res.upload(dev, h);
    exec::Recording rec =
        exec::record(simt::Device::recorder(dev), res, h, q);
    ASSERT_TRUE(rec.ok);
    h.apply_delta(delta());
    res.patch(dev, h);
    const std::string before = describe(dev);
    EXPECT_FALSE(exec::commit(dev, 0, res, h, rec));
    EXPECT_EQ(describe(dev), before) << "a refused commit touches nothing";
    svc::QueryOutcome o;
    o.payload = exec::run(dev, res, h, q);
    with_recording = describe(o) + describe(dev);
  }
  std::string inline_only;
  {
    adaptive::Graph h = g;
    simt::Device dev;
    exec::Resident res;
    res.upload(dev, h);
    h.apply_delta(delta());
    res.patch(dev, h);
    svc::QueryOutcome o;
    o.payload = exec::run(dev, res, h, q);
    inline_only = describe(o) + describe(dev);
  }
  EXPECT_EQ(with_recording, inline_only);
}

// A committed recording reproduces the inline run on a stream that other
// work already occupies, persistent-run shifts included.
TEST(ParallelDrainFallback, CommitMatchesInlineOnABusyStream) {
  const adaptive::Graph g = rmat_graph(10);
  const auto run = [&](bool recorded) {
    simt::Device dev;
    const simt::StreamId s1 = dev.create_stream();
    const simt::StreamId s2 = dev.create_stream();
    exec::Resident res;
    res.upload(dev, g);
    std::string out;
    for (graph::NodeId src : {1u, 2u, 3u}) {
      const exec::Query busy{Algo::bfs, src, 0.85, adaptive::Policy::adapt(),
                             s2};
      exec::run(dev, res, g, busy);
      exec::Query q{Algo::bfs, src + 10, 0.85, adaptive::Policy::adapt(), s1};
      svc::QueryOutcome o;
      if (recorded) {
        exec::Recording rec =
            exec::record(simt::Device::recorder(dev), res, g, q);
        EXPECT_TRUE(exec::commit(dev, s1, res, g, rec));
        o.payload = std::move(rec.payload);
      } else {
        o.payload = exec::run(dev, res, g, q);
      }
      out += describe(o) + describe(dev);
    }
    return out;
  };
  EXPECT_EQ(run(true), run(false));
}

// BFS and SSSP interleaved under batchable and unbatchable policies, with
// repeated sources and a mutation inside the drain: BFS batches are recorded
// and committed, SSSP batches and the queries that run alone inline, and
// every thread count drains the same history.
TEST(ParallelDrainBatches, InterleavedBfsSsspIsIdenticalAtAnyThreadCount) {
  const auto history = [](svc::GraphService& service,
                          std::vector<std::string>& log) {
    const svc::GraphId id = service.add_graph(rmat_graph(10));
    const std::uint32_t n = service.graph(id).num_nodes();
    const std::vector<adaptive::Policy> policies{
        adaptive::Policy::adapt(),
        adaptive::Policy::adapt()
            .with_direction(gg::Direction::adaptive)
            .with_representation(gg::Representation::adaptive),
        adaptive::Policy::fixed("U_B_QU"), adaptive::Policy::fixed("O_T_BM")};
    agg::Prng rng(29);
    const auto submit = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const Algo algo = i % 2 ? Algo::sssp : Algo::bfs;
        const auto source =
            static_cast<graph::NodeId>((rng.bounded(5) * 173 + 11) % n);
        ASSERT_TRUE(service
                        .submit(query(id, algo, source,
                                      policies[rng.bounded(policies.size())]))
                        .has_value());
      }
    };
    submit(18);
    snapshot(service, service.drain(), log);
    submit(10);
    graph::EdgeDelta d;
    d.inserts.push_back({3, n - 5});
    d.insert_weights.push_back(2);
    ASSERT_TRUE(service.submit_mutation(id, std::move(d)).has_value());
    submit(10);
    snapshot(service, service.drain(), log);
  };
  for (const bool cache : {false, true}) {
    svc::ServiceOptions opts;
    opts.concurrency = 4;
    if (!cache) {
      opts.cache_bytes = 0;
      opts.collapse = false;
    }
    const Result serial = at_threads(1, opts, 1, history);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const Result pooled = at_threads(4, opts, 1, history);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    expect_same(serial, pooled, 4);
    EXPECT_GT(pooled.stats.recorded, 0u) << (cache ? "cache" : "no cache");
  }
}

}  // namespace
