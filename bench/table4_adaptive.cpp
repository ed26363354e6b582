// Reproduces the adaptive-vs-static comparison (the evaluation the abstract
// summarizes: "our dynamic solution outperforms the best static one (up to a
// factor of 2X) on most datasets, and is more robust to the irregularities
// typical of real world graphs"). For BFS and SSSP on every dataset we report
// the best static variant, the worst static variant, the adaptive runtime,
// and the adaptive-over-best-static ratio. Two extension columns follow the
// paper's runtime: "DO" adds the direction controller, and "persistent"
// runs small-frontier iterations as persistent kernels (DESIGN.md
// "Persistent iterations") — same decisions, fewer launches and readbacks.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "runtime/adaptive_engine.h"

namespace {

void run_algo(bench::Algo algo, const bench::Options& opts) {
  agg::Table table({"Network", "best static", "t_best (ms)", "worst static",
                    "t_worst (ms)", "adaptive (ms)", "switches",
                    "DO (ms)", "persistent (ms)", "adaptive/best",
                    "adaptive/worst"});
  int adaptive_wins = 0;
  int rows = 0;
  for (const auto id : opts.datasets) {
    const auto d = bench::load_dataset(id, opts.scale, opts.cache_dir);
    const auto base = algo == bench::Algo::bfs ? bench::cpu_baseline_bfs(d)
                                               : bench::cpu_baseline_sssp(d);
    const auto& expected =
        algo == bench::Algo::bfs ? base.bfs_level : base.sssp_dist;
    const auto runs = bench::run_all_static(algo, d, 1.0, expected);

    std::size_t best = 0, worst = 0;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].gpu_us < runs[best].gpu_us) best = i;
      if (runs[i].gpu_us > runs[worst].gpu_us) worst = i;
    }

    simt::Device dev;
    gg::TraversalMetrics am;
    if (algo == bench::Algo::bfs) {
      auto r = rt::adaptive_bfs(dev, d.csr, d.source);
      AGG_CHECK(r.level == expected);
      am = std::move(r.metrics);
    } else {
      auto r = rt::adaptive_sssp(dev, d.csr, d.source);
      AGG_CHECK(r.dist == expected);
      am = std::move(r.metrics);
    }

    // The enlarged space: the same adaptive runtime with the Beamer
    // direction controller enabled (push<->pull as a 4th dimension).
    simt::Device ddev;
    rt::AdaptiveOptions dopts;
    dopts.direction = gg::Direction::adaptive;
    gg::TraversalMetrics dm;
    if (algo == bench::Algo::bfs) {
      auto r = rt::adaptive_bfs(ddev, d.csr, d.source, dopts);
      AGG_CHECK(r.level == expected);
      dm = std::move(r.metrics);
    } else {
      auto r = rt::adaptive_sssp(ddev, d.csr, d.source, dopts);
      AGG_CHECK(r.dist == expected);
      dm = std::move(r.metrics);
    }

    // The paper's runtime with persistent runs: identical decisions and
    // answers, one launch and one readback per run of small frontiers.
    simt::Device pdev;
    rt::AdaptiveOptions popts;
    popts.persistent = true;
    gg::TraversalMetrics pm;
    if (algo == bench::Algo::bfs) {
      auto r = rt::adaptive_bfs(pdev, d.csr, d.source, popts);
      AGG_CHECK(r.level == expected);
      pm = std::move(r.metrics);
    } else {
      auto r = rt::adaptive_sssp(pdev, d.csr, d.source, popts);
      AGG_CHECK(r.dist == expected);
      pm = std::move(r.metrics);
    }

    const double vs_best = runs[best].gpu_us / am.total_us;   // >1: adaptive wins
    const double vs_worst = runs[worst].gpu_us / am.total_us;
    adaptive_wins += vs_best >= 1.0;
    ++rows;
    table.add_row({d.name, gg::variant_name(runs[best].variant),
                   agg::Table::fmt(runs[best].gpu_us / 1000.0, 2),
                   gg::variant_name(runs[worst].variant),
                   agg::Table::fmt(runs[worst].gpu_us / 1000.0, 2),
                   agg::Table::fmt(am.total_us / 1000.0, 2),
                   std::to_string(am.switches),
                   agg::Table::fmt(dm.total_us / 1000.0, 2),
                   agg::Table::fmt(pm.total_us / 1000.0, 2),
                   agg::Table::fmt(vs_best, 2),
                   agg::Table::fmt(vs_worst, 2)},
                  vs_best >= 1.0 ? 9 : -1);
  }
  std::printf("%s\nadaptive matches or beats the best static on %d/%d datasets "
              "(speedup vs best static shown in column 'adaptive/best').\n\n",
              table.render().c_str(), adaptive_wins, rows);
}

}  // namespace

int main(int argc, char** argv) {
  agg::Cli cli(argc, argv);
  if (cli.maybe_help("Adaptive runtime vs the 8 static implementations, BFS "
                     "and SSSP, all datasets."))
    return 0;
  const auto opts = bench::parse_common(cli);
  bench::print_banner(
      "Adaptive vs static (abstract / Sec. VII)",
      "Paper claim: the dynamic solution outperforms the best static one (up "
      "to 2x) on most datasets and is far from the worst one everywhere.",
      opts);

  std::printf(">>> BFS\n");
  run_algo(bench::Algo::bfs, opts);
  std::printf(">>> SSSP\n");
  run_algo(bench::Algo::sssp, opts);
  return 0;
}
