// Extension experiment (ours): the serving layer. Two claims are measured
// on the modeled clock:
//
//  1. *Batched multi-source BFS*: answering a batch of 32 same-graph BFS
//     queries with one fused mask-per-node traversal (multi_source_engine)
//     beats 32 independent sequential traversals by >= 2x modeled
//     throughput — the fused pass shares the frontier structure, so each
//     adjacency list is read once per union-frontier iteration rather than
//     once per query.
//
//  2. *Stream concurrency*: a mixed BFS/SSSP workload drained through
//     GraphService at concurrency 4 finishes (modeled makespan) ahead of
//     the same workload at concurrency 1, because kernels from independent
//     queries backfill engine gaps and transfers overlap compute.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/prng.h"
#include "common/table.h"
#include "gpu_graph/multi_source_engine.h"
#include "runtime/adaptive_engine.h"
#include "service/graph_service.h"

namespace {

// Batched MS-BFS vs the same 32 queries run back-to-back on one device.
void bench_batching(const std::vector<graph::gen::Dataset>& datasets) {
  agg::Table table({"Network", "32 serial (ms)", "fused batch (ms)",
                    "speedup", "verified"});
  for (const auto& d : datasets) {
    agg::Prng prng(41);
    std::vector<graph::NodeId> sources;
    for (int i = 0; i < 32; ++i) {
      sources.push_back(
          static_cast<graph::NodeId>(prng.bounded(d.csr.num_nodes)));
    }

    double serial_us = 0;
    std::vector<std::vector<std::uint32_t>> expected;
    {
      simt::Device dev;
      gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, d.csr, false);
      for (const auto s : sources) {
        const auto r = rt::adaptive_bfs(dev, dg, d.csr, s);
        serial_us += r.metrics.total_us;
        expected.push_back(r.level);
      }
      dg.release(dev);
    }

    double batch_us = 0;
    bool match = true;
    {
      simt::Device dev;
      gg::DeviceGraph dg = gg::DeviceGraph::upload(dev, d.csr, false);
      const auto r = rt::adaptive_bfs_multi(dev, dg, d.csr, sources);
      batch_us = r.metrics.total_us;
      for (std::size_t s = 0; s < sources.size() && match; ++s) {
        for (std::size_t v = 0; v < d.csr.num_nodes; ++v) {
          if (r.values[v * sources.size() + s] != expected[s][v]) {
            match = false;
            break;
          }
        }
      }
      dg.release(dev);
    }

    table.add_row({d.name, agg::Table::fmt(serial_us / 1000.0, 2),
                   agg::Table::fmt(batch_us / 1000.0, 2),
                   agg::Table::fmt(serial_us / batch_us, 2),
                   match ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
}

// Same submitted workload, drained at different concurrency levels.
void bench_concurrency(const std::vector<graph::gen::Dataset>& datasets) {
  agg::Table table({"Network", "c=1 (ms)", "c=2 (ms)", "c=4 (ms)",
                    "c=4 speedup"});
  for (const auto& d : datasets) {
    std::vector<double> makespans;
    for (const std::uint32_t c : {1u, 2u, 4u}) {
      svc::ServiceOptions opts;
      opts.concurrency = c;
      opts.batch_bfs = false;  // isolate stream interleaving from batching
      svc::GraphService service(opts);
      adaptive::Graph g = adaptive::Graph::from_csr(graph::Csr(d.csr));
      g.set_uniform_weights(1, 1000);
      const svc::GraphId gid = service.add_graph(std::move(g));

      agg::Prng prng(43);
      for (int i = 0; i < 24; ++i) {
        svc::QueryRequest req;
        req.graph = gid;
        req.algo = i % 3 == 2 ? svc::Algo::sssp : svc::Algo::bfs;
        req.source = static_cast<graph::NodeId>(
            prng.bounded(service.graph(gid).num_nodes()));
        service.submit(req);
      }
      const auto outcomes = service.drain();
      for (const auto& out : outcomes) AGG_CHECK(out.ok());
      makespans.push_back(service.makespan_us());
    }
    table.add_row({d.name, agg::Table::fmt(makespans[0] / 1000.0, 2),
                   agg::Table::fmt(makespans[1] / 1000.0, 2),
                   agg::Table::fmt(makespans[2] / 1000.0, 2),
                   agg::Table::fmt(makespans[0] / makespans[2], 2)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Serving layer: fused multi-source BFS batching and "
                     "multi-stream concurrency."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Extension - GraphService serving layer",
      "Batched MS-BFS throughput vs independent queries, and modeled "
      "makespan of a mixed workload vs stream concurrency.",
      opts);

  const auto datasets = bench::load_datasets(opts);

  std::printf("-- fused 32-source BFS vs 32 sequential BFS --\n");
  bench_batching(datasets);

  std::printf("-- mixed BFS/SSSP drain makespan vs concurrency "
              "(24 queries, batching off) --\n");
  bench_concurrency(datasets);
  return 0;
}
