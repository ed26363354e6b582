// Extension experiment (ours): fleet serving — replication, routing, and
// vertex-cut sharding across N simulated devices (PR-8). Measured claims
// (modeled clock, deterministic at any --sim-threads):
//
//  1. *Replicated scaling*: serving a Zipf(s=1.0) stream of 256 BFS queries
//     from N=1..4 homogeneous replicas improves makespan monotonically, and
//     N=4 is >= 2x faster than N=1 (cache/collapse/batching off, so every
//     query pays its traversal — the speedup is pure routing parallelism).
//  2. *Failover exactness*: the same stream against a 4-device fleet whose
//     device 0 dies mid-run completes every query on the surviving replicas
//     with payloads byte-identical to the healthy single-device run, and no
//     query degrades to the CPU oracle.
//  3. *Sharded serving*: shrinking each device's modeled memory below the
//     graph's working-set footprint forces the vertex-cut placement; the
//     BSP execution over row shards answers every query byte-identically to
//     a single big device.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/table.h"
#include "service/graph_service.h"
#include "service/placement.h"

namespace {

constexpr std::size_t kQueries = 256;

std::vector<graph::NodeId> zipf_stream(double s, std::size_t n_nodes) {
  agg::Prng prng(97);
  const agg::PowerLawSampler sampler(s, 1,
                                     static_cast<std::uint32_t>(n_nodes));
  std::vector<graph::NodeId> sources;
  sources.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    sources.push_back(static_cast<graph::NodeId>(sampler.sample(prng) - 1));
  }
  return sources;
}

// Submits the stream and drains it, returning outcomes ordered by query id
// so runs with different routings compare element-wise.
std::vector<svc::QueryOutcome> run_stream(
    svc::GraphService& service, svc::GraphId gid,
    const std::vector<graph::NodeId>& sources) {
  for (const auto s : sources) {
    svc::QueryRequest req;
    req.graph = gid;
    req.algo = svc::Algo::bfs;
    req.source = s;
    AGG_CHECK(service.submit(std::move(req)));
  }
  auto outcomes = service.drain();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const svc::QueryOutcome& a, const svc::QueryOutcome& b) {
              return a.id < b.id;
            });
  return outcomes;
}

// Cache, collapsing and batching all off: each query pays its full
// traversal, so makespan measures routing parallelism alone.
svc::ServiceOptions service_options() {
  svc::ServiceOptions opts;
  opts.concurrency = 4;
  opts.queue_capacity = kQueries;
  opts.cache_bytes = 0;
  opts.collapse = false;
  opts.batch_bfs = false;
  return opts;
}

bool payloads_equal(const std::vector<svc::QueryOutcome>& a,
                    const std::vector<svc::QueryOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].status != adaptive::Status::ok ||
        b[i].status != adaptive::Status::ok) {
      return false;
    }
    if (std::get<adaptive::BfsResult>(a[i].payload).level !=
        std::get<adaptive::BfsResult>(b[i].payload).level) {
      return false;
    }
  }
  return true;
}

void bench_scaling(const std::vector<graph::gen::Dataset>& datasets) {
  agg::Table table({"Network", "N=1 (ms)", "N=2 (ms)", "N=3 (ms)", "N=4 (ms)",
                    "N=4 speedup", "exact"});
  for (const auto& d : datasets) {
    const auto sources = zipf_stream(1.0, d.csr.num_nodes);
    std::vector<double> makespans;
    std::vector<svc::QueryOutcome> reference;
    bool exact = true;
    for (std::size_t n = 1; n <= 4; ++n) {
      svc::GraphService service(service_options(),
                                simt::ClusterSpec::homogeneous(n));
      const svc::GraphId gid =
          service.add_graph(adaptive::Graph::from_csr(graph::Csr(d.csr)));
      const auto outcomes = run_stream(service, gid, sources);
      makespans.push_back(service.makespan_us());
      if (n == 1) {
        reference = outcomes;
      } else {
        exact = exact && payloads_equal(reference, outcomes);
      }
    }
    for (std::size_t n = 1; n < makespans.size(); ++n) {
      AGG_CHECK_MSG(makespans[n] <= makespans[n - 1] + 1e-9,
                    "fleet makespan not monotone in N");
    }
    const double speedup = makespans.front() / makespans.back();
    AGG_CHECK_MSG(speedup >= 2.0, "replicated serving < 2x at N=4");
    AGG_CHECK_MSG(exact, "replica payload mismatch");
    table.add_row({d.name, agg::Table::fmt(makespans[0] / 1000.0, 2),
                   agg::Table::fmt(makespans[1] / 1000.0, 2),
                   agg::Table::fmt(makespans[2] / 1000.0, 2),
                   agg::Table::fmt(makespans[3] / 1000.0, 2),
                   agg::Table::fmt(speedup, 2), exact ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
}

void bench_failover(const std::vector<graph::gen::Dataset>& datasets) {
  agg::Table table({"Network", "healthy (ms)", "dev0 dies (ms)", "failovers",
                    "degraded", "exact"});
  for (const auto& d : datasets) {
    const auto sources = zipf_stream(1.0, d.csr.num_nodes);

    svc::GraphService healthy(service_options(),
                              simt::ClusterSpec::homogeneous(1));
    svc::GraphId gid =
        healthy.add_graph(adaptive::Graph::from_csr(graph::Csr(d.csr)));
    const auto expected = run_stream(healthy, gid, sources);

    svc::GraphService faulty(service_options(),
                             simt::ClusterSpec::homogeneous(4));
    gid = faulty.add_graph(adaptive::Graph::from_csr(graph::Csr(d.csr)));
    // Device 0 permanently dies after its 5th fault-site visit; replicas
    // 1..3 absorb its traffic.
    faulty.set_fault_plan(simt::FaultPlan::parse("dead.after=5"), 0);
    const auto outcomes = run_stream(faulty, gid, sources);

    std::size_t failovers = 0, degraded = 0;
    for (const auto& out : outcomes) {
      failovers += out.failover;
      degraded += out.degraded;
    }
    const bool exact = payloads_equal(expected, outcomes);
    AGG_CHECK_MSG(exact, "failover payload mismatch");
    AGG_CHECK_MSG(failovers > 0, "dead device produced no failovers");
    AGG_CHECK_MSG(degraded == 0,
                  "query degraded to CPU despite healthy replicas");
    table.add_row({d.name, agg::Table::fmt(healthy.makespan_us() / 1000.0, 2),
                   agg::Table::fmt(faulty.makespan_us() / 1000.0, 2),
                   agg::Table::fmt(static_cast<double>(failovers), 0),
                   agg::Table::fmt(static_cast<double>(degraded), 0),
                   exact ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
}

void bench_sharded(const std::vector<graph::gen::Dataset>& datasets) {
  agg::Table table({"Network", "CSR MB", "device MB", "placement",
                    "single (ms)", "sharded (ms)", "exact"});
  for (const auto& d : datasets) {
    const auto sources = zipf_stream(1.0, d.csr.num_nodes);

    svc::GraphService single(service_options(),
                             simt::ClusterSpec::homogeneous(1));
    svc::GraphId gid =
        single.add_graph(adaptive::Graph::from_csr(graph::Csr(d.csr)));
    const auto expected = run_stream(single, gid, sources);

    // Devices too small for a full replica (placement needs
    // headroom * csr_bytes free) but big enough for one quarter-cut shard:
    // the planner must choose the vertex-cut placement.
    const std::uint64_t bytes = svc::device_graph_bytes(d.csr, true);
    simt::DeviceProps small = simt::DeviceProps::fermi_c2070();
    small.global_mem_bytes = bytes + (bytes >> 2);
    svc::GraphService sharded(service_options(),
                              simt::ClusterSpec::homogeneous(4, small));
    gid = sharded.add_graph(adaptive::Graph::from_csr(graph::Csr(d.csr)));
    AGG_CHECK_MSG(!sharded.placement(gid).replicated(),
                  "over-budget graph was not sharded");
    const auto outcomes = run_stream(sharded, gid, sources);

    const bool exact = payloads_equal(expected, outcomes);
    AGG_CHECK_MSG(exact, "sharded payload mismatch");
    table.add_row(
        {d.name, agg::Table::fmt(static_cast<double>(bytes >> 20), 0),
         agg::Table::fmt(static_cast<double>(small.global_mem_bytes >> 20), 0),
         sharded.placement(gid).describe(),
         agg::Table::fmt(single.makespan_us() / 1000.0, 2),
         agg::Table::fmt(sharded.makespan_us() / 1000.0, 2),
         exact ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Fleet serving: replicated makespan scaling N=1..4, "
                     "replica failover, and vertex-cut sharded execution."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Extension - fleet serving & placement",
      "Modeled makespan of a 256-query Zipf(1.0) BFS stream served by "
      "N=1..4 simulated replicas; failover under a dead device; vertex-cut "
      "sharding when the graph exceeds one device's memory.",
      opts);

  const auto datasets = bench::load_datasets(opts);

  std::printf("-- Replicated serving: makespan vs fleet size --\n");
  bench_scaling(datasets);
  std::printf("-- Replica failover: device 0 dies mid-stream --\n");
  bench_failover(datasets);
  std::printf("-- Vertex-cut sharding: graph exceeds device memory --\n");
  bench_sharded(datasets);
  return 0;
}
