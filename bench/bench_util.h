// Shared infrastructure for the experiment benches: dataset caching, common
// flags, CPU-baseline pricing, and the static-variant sweep used by the
// speedup tables.
//
// Every bench accepts:
//   --scale=<f>       fraction of the paper's dataset sizes (default 1.0)
//   --quick           shorthand for --scale=0.2
//   --datasets=a,b    comma-separated subset (CO-road,CiteSeer,p2p,Amazon,Google,SNS)
//   --cache=<dir>     dataset cache directory (default .dataset-cache)
//   --sim-threads=<n> host threads for the simulator: service drains record
//                     queries ahead on them (overrides SIMT_THREADS; default
//                     hardware concurrency)
//   --trace-out=<f>   write a trace of the bench's runs (flushed at exit)
//   --trace-format=<f> chrome (timeline, default) | jsonl (decision log)
//   --metrics-out=<f> write the metrics-counter registry as JSON at exit
#pragma once

#include <string>
#include <vector>

#include "common/cli.h"
#include "gpu_graph/engine_common.h"
#include "gpu_graph/metrics.h"
#include "gpu_graph/variant.h"
#include "graph/gen/datasets.h"
#include "simt/device.h"

namespace bench {

struct Options {
  double scale = 1.0;
  std::vector<graph::gen::DatasetId> datasets;
  std::string cache_dir = ".dataset-cache";
};

Options parse_common(const agg::Cli& cli);

// Generates the dataset (or loads it from the binary cache) at the given
// scale; the cache key includes the scale.
graph::gen::Dataset load_dataset(graph::gen::DatasetId id, double scale,
                                 const std::string& cache_dir);
std::vector<graph::gen::Dataset> load_datasets(const Options& opts);

// Serial CPU baseline, priced with the deterministic cost model (the runs
// also provide the expected results used to verify the GPU outputs).
struct CpuBaseline {
  double bfs_us = 0;
  double sssp_us = 0;
  std::vector<std::uint32_t> bfs_level;
  std::vector<std::uint32_t> sssp_dist;
};
CpuBaseline cpu_baseline_bfs(const graph::gen::Dataset& d);
CpuBaseline cpu_baseline_sssp(const graph::gen::Dataset& d);

enum class Algo { bfs, sssp };

// One static GPU implementation run; result verified against `expected`
// (abort on mismatch — a bench must never report numbers for wrong output).
struct VariantRun {
  gg::Variant variant;
  double gpu_us = 0;
  double speedup = 0;  // cpu_us / gpu_us
  gg::TraversalMetrics metrics;
};
VariantRun run_static(Algo algo, const graph::gen::Dataset& d, gg::Variant v,
                      double cpu_us, const std::vector<std::uint32_t>& expected);

// All eight variants in table order.
std::vector<VariantRun> run_all_static(Algo algo, const graph::gen::Dataset& d,
                                       double cpu_us,
                                       const std::vector<std::uint32_t>& expected);

// Standard banner naming the paper artifact a bench reproduces.
void print_banner(const char* artifact, const char* description,
                  const Options& opts);

}  // namespace bench
