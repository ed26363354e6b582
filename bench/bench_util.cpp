#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "common/check.h"
#include "cpu/bfs_serial.h"
#include "cpu/cpu_cost_model.h"
#include "cpu/sssp_serial.h"
#include "gpu_graph/bfs_engine.h"
#include "gpu_graph/sssp_engine.h"
#include "graph/io.h"
#include "simt/exec_pool.h"
#include "trace/chrome_trace.h"
#include "trace/counters.h"
#include "trace/jsonl_trace.h"
#include "trace/trace_sink.h"

namespace bench {
namespace {

graph::gen::DatasetId parse_dataset(const std::string& name) {
  for (const auto id : graph::gen::all_datasets()) {
    if (name == graph::gen::dataset_name(id)) return id;
  }
  std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
  std::abort();
}

std::string g_metrics_out;

// Benches exit through main's return (or google-benchmark's shutdown), so
// trace artifacts are finalized from an atexit hook.
void flush_trace_artifacts() {
  trace::Tracer::instance().clear();
  if (g_metrics_out.empty()) return;
  std::ofstream f(g_metrics_out, std::ios::binary | std::ios::trunc);
  if (f) f << trace::CounterRegistry::instance().to_json() << '\n';
}

void setup_tracing(const agg::Cli& cli) {
  const std::string trace_out = cli.get("trace-out", "");
  g_metrics_out = cli.get("metrics-out", "");
  if (trace_out.empty() && g_metrics_out.empty()) return;
  if (!trace_out.empty()) {
    const std::string format = cli.get("trace-format", "chrome");
    if (format == "chrome") {
      const int lanes =
          static_cast<int>(simt::DeviceProps::fermi_c2070().num_sms);
      trace::Tracer::instance().attach(
          std::make_unique<trace::ChromeTraceSink>(trace_out, lanes));
    } else if (format == "jsonl") {
      trace::Tracer::instance().attach(
          std::make_unique<trace::JsonlDecisionSink>(trace_out));
    } else {
      std::fprintf(stderr, "unknown --trace-format '%s' (expect chrome|jsonl)\n",
                   format.c_str());
      std::exit(2);
    }
  }
  if (!g_metrics_out.empty()) {
    trace::CounterRegistry::instance().set_enabled(true);
  }
  std::atexit(flush_trace_artifacts);
}

}  // namespace

Options parse_common(const agg::Cli& cli) {
  Options opts;
  opts.scale = cli.get_double("scale", cli.get_bool("quick", false) ? 0.2 : 1.0);
  opts.cache_dir = cli.get("cache", ".dataset-cache");
  if (cli.has("sim-threads")) {
    const std::string text = cli.get("sim-threads", "");
    const std::optional<int> n = simt::parse_threads(text);
    if (!n) {
      std::fprintf(stderr,
                   "--sim-threads=%s: expected a whole number from 1 to %d\n",
                   text.c_str(), simt::kMaxThreads);
      std::exit(2);
    }
    simt::ExecPool::set_threads(*n);
  }
  setup_tracing(cli);
  const std::string list = cli.get("datasets", "");
  if (list.empty()) {
    opts.datasets = graph::gen::all_datasets();
  } else {
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const std::size_t comma = list.find(',', pos);
      const std::string tok = list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      opts.datasets.push_back(parse_dataset(tok));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }
  return opts;
}

graph::gen::Dataset load_dataset(graph::gen::DatasetId id, double scale,
                                 const std::string& cache_dir) {
  char key[128];
  std::snprintf(key, sizeof key, "%s_%.4f.agg", graph::gen::dataset_name(id), scale);
  const std::filesystem::path path = std::filesystem::path(cache_dir) / key;
  if (std::filesystem::exists(path)) {
    graph::gen::Dataset d;
    d.id = id;
    d.name = graph::gen::dataset_name(id);
    d.csr = graph::read_binary(path.string());
    d.source = graph::suggest_source(d.csr);
    d.stats = graph::GraphStats::compute(d.csr);
    return d;
  }
  graph::gen::Dataset d = graph::gen::make_dataset(id, scale);
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (!ec) graph::write_binary(d.csr, path.string());
  return d;
}

std::vector<graph::gen::Dataset> load_datasets(const Options& opts) {
  std::vector<graph::gen::Dataset> out;
  out.reserve(opts.datasets.size());
  for (const auto id : opts.datasets) {
    out.push_back(load_dataset(id, opts.scale, opts.cache_dir));
    const auto& d = out.back();
    std::printf("  loaded %-9s %s\n", d.name.c_str(), d.stats.summary().c_str());
  }
  return out;
}

CpuBaseline cpu_baseline_bfs(const graph::gen::Dataset& d) {
  CpuBaseline base;
  auto r = cpu::bfs(d.csr, d.source);
  base.bfs_us = cpu::CpuModel::core_i7().bfs_time_us(r.counts, d.csr.num_nodes);
  base.bfs_level = std::move(r.level);
  return base;
}

CpuBaseline cpu_baseline_sssp(const graph::gen::Dataset& d) {
  CpuBaseline base;
  auto r = cpu::dijkstra(d.csr, d.source);
  base.sssp_us = cpu::CpuModel::core_i7().dijkstra_time_us(r.counts, d.csr.num_nodes);
  base.sssp_dist = std::move(r.dist);
  return base;
}

VariantRun run_static(Algo algo, const graph::gen::Dataset& d, gg::Variant v,
                      double cpu_us, const std::vector<std::uint32_t>& expected) {
  VariantRun run;
  run.variant = v;
  simt::Device dev;
  if (algo == Algo::bfs) {
    auto r = gg::run_bfs(dev, d.csr, d.source, v);
    AGG_CHECK_MSG(r.level == expected, "GPU BFS result mismatch in bench");
    run.gpu_us = r.metrics.total_us;
    run.metrics = std::move(r.metrics);
  } else {
    auto r = gg::run_sssp(dev, d.csr, d.source, v);
    AGG_CHECK_MSG(r.dist == expected, "GPU SSSP result mismatch in bench");
    run.gpu_us = r.metrics.total_us;
    run.metrics = std::move(r.metrics);
  }
  run.speedup = cpu_us / run.gpu_us;
  return run;
}

std::vector<VariantRun> run_all_static(Algo algo, const graph::gen::Dataset& d,
                                       double cpu_us,
                                       const std::vector<std::uint32_t>& expected) {
  std::vector<VariantRun> runs;
  for (const gg::Variant v : gg::all_variants()) {
    runs.push_back(run_static(algo, d, v, cpu_us, expected));
  }
  return runs;
}

void print_banner(const char* artifact, const char* description,
                  const Options& opts) {
  std::printf("=== %s ===\n%s\n", artifact, description);
  std::printf("device: %s | dataset scale: %.2f%s\n\n",
              simt::DeviceProps::fermi_c2070().name.c_str(), opts.scale,
              opts.scale < 1.0 ? "  (use --scale=1 for the paper's sizes)" : "");
}

}  // namespace bench
