// The single query executor (api/exec.h) seen from its three fronts.
//
// Cross-front differential: every algorithm x policy (adaptive, adaptive
// with the direction and layout controllers, fixed variants with their valid
// _PULL/_REL/_BIN suffixes) x symmetrize mode must produce byte-identical
// payloads and the same kernel-side metrics whether it runs one-shot
// (adaptive::bfs(dev, g, ...)), on a registered Session, or through a
// one-device GraphService with concurrency 1 and no cache or batching.
//
// Modeled clock: a registered Session and a one-slot GraphService charge
// every query exactly what running it by hand on a resident copy does, on
// the device's default stream.
//
// Fault rollback: a faulted attempt must not strand device structures it
// pinned lazily (the CSC of a pull iteration, a nested layout, the cc
// closure). Once the graph is evicted (Session) or replaced (GraphService),
// device memory returns to its value before the graph was placed, and the
// next query succeeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "api/algorithms.h"
#include "api/session.h"
#include "common/prng.h"
#include "conformance_corpus.h"
#include "graph/csr.h"
#include "graph/gen/generators.h"
#include "service/graph_service.h"
#include "simt/fault.h"

namespace {

using adaptive::Policy;
using adaptive::Symmetrize;

// What must agree across fronts: the payload bytes and the kernel-side
// metrics. Upload and total time legitimately differ (one-shot calls pay
// their upload per call), so they are not compared.
struct Observed {
  bool ok = false;
  std::vector<std::uint32_t> ints;  // level / dist / component + count
  std::vector<double> rank;
  double kernel_us = 0;
  std::uint64_t kernels = 0;
  std::uint64_t edges_processed = 0;
  std::size_t iterations = 0;
  std::uint32_t switches = 0;
  std::uint32_t decisions = 0;
};

template <typename R>
void observe_metrics(const R& r, Observed& o) {
  o.ok = r.ok();
  o.kernel_us = r.metrics.kernel_us;
  o.kernels = r.metrics.kernels;
  o.edges_processed = r.metrics.edges_processed;
  o.iterations = r.metrics.iterations.size();
  o.switches = r.metrics.switches;
  o.decisions = r.metrics.decisions;
}

Observed observe(const svc::Payload& p) {
  Observed o;
  if (const auto* r = std::get_if<adaptive::BfsResult>(&p)) {
    observe_metrics(*r, o);
    o.ints = r->level;
  } else if (const auto* r = std::get_if<adaptive::SsspResult>(&p)) {
    observe_metrics(*r, o);
    o.ints = r->dist;
  } else if (const auto* r = std::get_if<adaptive::CcResult>(&p)) {
    observe_metrics(*r, o);
    o.ints = r->component;
    o.ints.push_back(r->num_components);
  } else if (const auto* r = std::get_if<adaptive::PageRankResult>(&p)) {
    observe_metrics(*r, o);
    o.rank = r->rank;
  }
  return o;
}

void expect_same(const Observed& want, const Observed& got) {
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(want.ints, got.ints);
  EXPECT_EQ(want.rank, got.rank);
  EXPECT_EQ(want.kernel_us, got.kernel_us);
  EXPECT_EQ(want.kernels, got.kernels);
  EXPECT_EQ(want.edges_processed, got.edges_processed);
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_EQ(want.switches, got.switches);
  EXPECT_EQ(want.decisions, got.decisions);
}

svc::Payload one_shot(const adaptive::Graph& g, const svc::QueryRequest& req) {
  simt::Device dev;
  switch (req.algo) {
    case svc::Algo::bfs:
      return adaptive::bfs(dev, g, req.source, req.policy);
    case svc::Algo::sssp:
      return adaptive::sssp(dev, g, req.source, req.policy);
    case svc::Algo::cc:
      return adaptive::cc(dev, g, req.policy);
    case svc::Algo::pagerank:
      return adaptive::pagerank(dev, g, req.damping, req.policy);
  }
  return {};
}

svc::Payload registered(const adaptive::Graph& g,
                        const svc::QueryRequest& req) {
  adaptive::Session session;
  session.register_graph(g);
  switch (req.algo) {
    case svc::Algo::bfs:
      return session.bfs(g, req.source, req.policy);
    case svc::Algo::sssp:
      return session.sssp(g, req.source, req.policy);
    case svc::Algo::cc:
      return session.cc(g, req.policy);
    case svc::Algo::pagerank:
      return session.pagerank(g, req.damping, req.policy);
  }
  return {};
}

svc::ServiceOptions serial_service() {
  svc::ServiceOptions opts;
  opts.concurrency = 1;
  opts.cache_bytes = 0;
  opts.batch_bfs = false;
  return opts;
}

svc::Payload served(const adaptive::Graph& g, svc::QueryRequest req) {
  svc::GraphService service(serial_service());
  req.graph = service.add_graph(g);
  EXPECT_TRUE(service.submit(req).has_value());
  std::vector<svc::QueryOutcome> outs = service.drain();
  EXPECT_EQ(outs.size(), 1u);
  return outs.empty() ? svc::Payload{} : outs.front().payload;
}

std::vector<std::pair<std::string, Policy>> policies_for(svc::Algo algo) {
  std::vector<std::pair<std::string, Policy>> out = {
      {"adaptive", Policy::adapt()},
      {"adaptive+DO+AREP",
       Policy::adapt()
           .with_direction(gg::Direction::adaptive)
           .with_representation(gg::Representation::adaptive)},
  };
  std::vector<std::string> fixed;
  switch (algo) {
    case svc::Algo::bfs:
    case svc::Algo::sssp:
      fixed = {"U_T_BM",     "U_B_QU",      "O_T_BM",
               "U_T_BM_PULL", "U_B_QU_REL", "U_T_BM_BIN",
               "U_T_BM_PULL_REL"};
      break;
    case svc::Algo::cc:
      fixed = {"U_T_BM",     "U_B_QU",      "U_T_BM_PULL",
               "U_B_QU_REL", "U_T_BM_BIN", "U_T_BM_PULL_BIN"};
      break;
    case svc::Algo::pagerank:  // always plain and push
      fixed = {"U_T_BM", "U_B_QU"};
      break;
  }
  for (const std::string& name : fixed) {
    out.push_back({name, Policy::fixed(name)});
  }
  return out;
}

TEST(ExecTest, OneShotSessionAndServiceAgreeOnEveryCombination) {
  std::vector<std::pair<std::string, adaptive::Graph>> graphs;
  for (const testutil::GraphCase& c : testutil::conformance_corpus()) {
    if (c.name == "rmat_2" || c.name == "road_1") {
      adaptive::Graph g = adaptive::Graph::from_csr(c.csr);
      g.set_uniform_weights(1, 64, 7);
      graphs.emplace_back(c.name, std::move(g));
    } else if (c.name == "rmat_1") {
      // Unweighted and symmetric, so csc() is csr() itself and a pull
      // gather walks the closure's neighbor order, not a sorted transpose.
      graphs.emplace_back("sym_rmat_1",
                          adaptive::Graph::from_csr(graph::symmetrize(c.csr)));
    }
  }
  ASSERT_EQ(graphs.size(), 3u);

  std::size_t combos = 0;
  for (const auto& [gname, g] : graphs) {
    for (const svc::Algo algo : {svc::Algo::bfs, svc::Algo::sssp,
                                 svc::Algo::cc, svc::Algo::pagerank}) {
      if (algo == svc::Algo::sssp && !g.is_weighted()) continue;
      for (const auto& [pname, policy] : policies_for(algo)) {
        for (const Symmetrize sym : {Symmetrize::auto_detect,
                                     Symmetrize::always, Symmetrize::never}) {
          svc::QueryRequest req;
          req.algo = algo;
          req.source = g.default_source();
          req.policy = policy.with_symmetrize(sym);
          SCOPED_TRACE(gname + " " + svc::algo_name(algo) + " " + pname +
                       " symmetrize=" +
                       std::to_string(static_cast<int>(sym)));
          const Observed want = observe(one_shot(g, req));
          ASSERT_TRUE(want.ok);
          {
            SCOPED_TRACE("Session");
            expect_same(want, observe(registered(g, req)));
          }
          {
            SCOPED_TRACE("GraphService");
            expect_same(want, observe(served(g, req)));
          }
          ++combos;
        }
      }
    }
  }
  EXPECT_GT(combos, 200u);
}

// ---- the modeled clock across fronts ----

// What one front reported for a query stream: each answer, each query's
// modeled total time, and device 0's clock at the end.
struct Timeline {
  std::vector<std::vector<std::uint32_t>> answers;
  std::vector<double> total_us;
  double now_us = 0;

  void add(const svc::Payload& p) {
    if (const auto* r = std::get_if<adaptive::BfsResult>(&p)) {
      answers.push_back(r->level);
      total_us.push_back(r->metrics.total_us);
    } else if (const auto* r = std::get_if<adaptive::SsspResult>(&p)) {
      answers.push_back(r->dist);
      total_us.push_back(r->metrics.total_us);
    } else {
      ADD_FAILURE() << "no answer";
    }
  }
};

TEST(ExecTest, SessionAndOneSlotServiceKeepTheDefaultStreamTimeline) {
  adaptive::Graph g =
      adaptive::Graph::from_csr(graph::gen::road_network(4096, 1));
  g.set_uniform_weights(1, 1000, 5);
  const Policy policy = Policy::adapt()
                            .with_direction(gg::Direction::adaptive)
                            .with_representation(gg::Representation::adaptive);
  std::vector<svc::QueryRequest> reqs(200);
  agg::Prng prng(9);
  for (svc::QueryRequest& req : reqs) {
    req.algo = prng.bernoulli(0.25) ? svc::Algo::sssp : svc::Algo::bfs;
    req.source = static_cast<graph::NodeId>(prng.bounded(g.num_nodes()));
    req.policy = policy;
  }

  // Reference: one resident copy, every query by hand on stream 0.
  Timeline want;
  {
    simt::Device dev;
    exec::Resident res;
    res.upload(dev, g);
    for (const svc::QueryRequest& req : reqs) {
      want.add(exec::run(dev, res, g,
                         {req.algo, req.source, req.damping, req.policy, 0}));
    }
    want.now_us = dev.now_us();
    res.release(dev);
  }

  Timeline session_got;
  {
    adaptive::Session session;
    session.register_graph(g);
    for (const svc::QueryRequest& req : reqs) {
      if (req.algo == svc::Algo::sssp) {
        session_got.add(session.sssp(g, req.source, req.policy));
      } else {
        session_got.add(session.bfs(g, req.source, req.policy));
      }
    }
    session_got.now_us = session.device().now_us();
  }

  Timeline service_got;
  {
    svc::ServiceOptions opts = serial_service();
    opts.collapse = false;
    svc::GraphService service(opts);
    const svc::GraphId gid = service.add_graph(g);
    for (svc::QueryRequest req : reqs) {
      req.graph = gid;
      ASSERT_TRUE(service.submit(req).has_value());
      const std::vector<svc::QueryOutcome> outs = service.drain();
      ASSERT_EQ(outs.size(), 1u);
      service_got.add(outs.front().payload);
    }
    service_got.now_us = service.device().now_us();
  }

  for (const auto& [name, got] : {std::pair{"Session", &session_got},
                                  std::pair{"GraphService", &service_got}}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(got->answers.size(), reqs.size());
    std::size_t moved = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(got->answers[i], want.answers[i]) << "query " << i;
      moved += got->total_us[i] != want.total_us[i];
    }
    EXPECT_EQ(moved, 0u) << "queries whose metrics.total_us moved";
    EXPECT_EQ(got->now_us, want.now_us);
  }
}

// ---- fault rollback ----

// RMAT, scale 12, 8 edges per node, seed 3, unweighted and directed.
adaptive::Graph fault_graph() {
  graph::gen::RmatParams p;
  p.scale = 12;
  p.edges_per_node = 8;
  p.seed = 3;
  return adaptive::Graph::from_csr(graph::gen::rmat(p));
}

struct PinCase {
  const char* name;
  svc::Algo algo;
  Policy policy;
};

// Each case pins one lazily uploaded structure on its first attempt.
std::vector<PinCase> pin_cases() {
  return {
      {"pull CSC", svc::Algo::bfs, Policy::fixed("U_T_BM_PULL")},
      {"nested layout", svc::Algo::bfs, Policy::fixed("U_B_QU_REL")},
      {"cc closure", svc::Algo::cc, Policy::adapt()},
  };
}

constexpr int kRounds = 6;

simt::FaultPlan round_plan(int round) {
  return simt::FaultPlan::parse("seed=" + std::to_string(round + 2) +
                                ", kernel.p=0.05");
}

TEST(ExecFaultTest, SessionEvictReturnsMemoryAfterFaultedAttempts) {
  const adaptive::Graph g = fault_graph();
  for (const PinCase& c : pin_cases()) {
    SCOPED_TRACE(c.name);
    adaptive::Session session;
    simt::Device& dev = session.device();
    const std::uint64_t before = dev.mem_in_use();
    session.register_graph(g);
    const auto run = [&](graph::NodeId source) {
      return c.algo == svc::Algo::bfs
                 ? session.bfs(g, source, c.policy).ok()
                 : session.cc(g, c.policy).ok();
    };
    int faulted = 0;
    for (int round = 0; round < kRounds; ++round) {
      // The graph was just registered or evicted, so the query pins afresh.
      dev.set_fault_plan(round_plan(round));
      faulted += run(static_cast<graph::NodeId>(round * 97)) ? 0 : 1;
      dev.set_fault_plan({});
      session.evict(g);
      ASSERT_EQ(dev.mem_in_use(), before) << "round " << round;
    }
    EXPECT_GT(faulted, 0);
    EXPECT_TRUE(run(g.default_source()));
  }
}

TEST(ExecFaultTest, ServiceUpdateReturnsMemoryAfterFaultedAttempts) {
  const adaptive::Graph g = fault_graph();
  for (const PinCase& c : pin_cases()) {
    SCOPED_TRACE(c.name);
    svc::GraphService service(serial_service());
    simt::Device& dev = service.device();
    const svc::GraphId gid = service.add_graph(g);
    // update_graph releases the old copy before placing the new one, so
    // memory returns here exactly when the release left nothing behind.
    const std::uint64_t placed = dev.mem_in_use();
    const auto run = [&](graph::NodeId source) {
      svc::QueryRequest req;
      req.algo = c.algo;
      req.graph = gid;
      req.source = source;
      req.policy = c.policy;
      EXPECT_TRUE(service.submit(req).has_value());
      const std::vector<svc::QueryOutcome> outs = service.drain();
      EXPECT_EQ(outs.size(), 1u);
      return outs.empty() ? svc::QueryOutcome{} : outs.front();
    };
    int faulted = 0;
    for (int round = 0; round < kRounds; ++round) {
      // The graph was just placed or replaced, so the query pins afresh.
      service.set_fault_plan(round_plan(round));
      const svc::QueryOutcome out = run(static_cast<graph::NodeId>(round * 97));
      faulted += out.retries > 0 || out.degraded ? 1 : 0;
      service.set_fault_plan({});
      service.update_graph(gid, g);
      ASSERT_EQ(dev.mem_in_use(), placed) << "round " << round;
    }
    EXPECT_GT(faulted, 0);
    const svc::QueryOutcome last = run(g.default_source());
    EXPECT_TRUE(last.ok());
    EXPECT_FALSE(last.degraded);
  }
}

}  // namespace
