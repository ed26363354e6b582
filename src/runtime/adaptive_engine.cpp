#include "runtime/adaptive_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_stats.h"
#include "graph/transform.h"
#include "trace/trace_sink.h"

namespace rt {
namespace {

gg::EngineOptions engine_opts(const AdaptiveOptions& opts) {
  gg::EngineOptions eo = opts.engine;
  eo.monitor_interval = opts.monitor_interval == 0 ? 1 : opts.monitor_interval;
  return eo;
}

Thresholds effective_thresholds(simt::Device& dev, const AdaptiveOptions& opts) {
  if (opts.thresholds_overridden) return opts.thresholds;
  Thresholds t = Thresholds::for_device(dev.props(), opts.engine.thread_tpb,
                                        opts.thresholds.t3_fraction);
  // The direction and representation knobs are not device-derived; they
  // always flow from the caller so --do-alpha/--do-beta (and the rep
  // thresholds) work without pinning T1/T2.
  t.do_alpha = opts.thresholds.do_alpha;
  t.do_beta = opts.thresholds.do_beta;
  t.rep_cv = opts.thresholds.rep_cv;
  t.rep_hub = opts.thresholds.rep_hub;
  t.rep_min_nodes = opts.thresholds.rep_min_nodes;
  t.rep_switch_fraction = opts.thresholds.rep_switch_fraction;
  t.rep_upload_fraction = opts.thresholds.rep_upload_fraction;
  return t;
}

// Cold path of the selector's trace::active() branch: one DecisionEvent per
// decision point, stamped with the modeled-clock high-water mark (the
// selector has no Device handle).
void emit_decision(const Thresholds& t, std::uint32_t interval,
                   const char* algo, const gg::SelectorInput& in,
                   const gg::Variant& chosen, std::string& prev_variant) {
  auto& tracer = trace::Tracer::instance();
  std::string name = gg::variant_name(chosen);
  if (tracer.has_sinks()) {
    trace::DecisionEvent ev;
    ev.algo = algo;
    ev.iteration = in.iteration;
    ev.ws_size = in.ws_size;
    ev.avg_outdegree = in.avg_outdegree;
    ev.outdeg_stddev = in.outdeg_stddev;
    ev.num_nodes = in.num_nodes;
    ev.t1 = t.t1_avg_outdegree;
    ev.t2 = t.t2_ws_size;
    ev.t3_fraction = t.t3_fraction;
    ev.t3 = static_cast<std::uint64_t>(t.t3_fraction * in.num_nodes);
    ev.skew_weight = t.skew_weight;
    ev.direction = gg::direction_name(chosen.direction);
    ev.representation = gg::representation_name(chosen.representation);
    ev.frontier_edges = in.frontier_edges;
    ev.unexplored_edges = in.unexplored_edges;
    ev.do_alpha = t.do_alpha;
    ev.do_beta = t.do_beta;
    ev.interval = interval;
    ev.prev_variant = prev_variant;
    ev.variant = name;
    ev.switched = !prev_variant.empty() && prev_variant != name;
    ev.ts_us = tracer.time_us();
    tracer.decision(std::move(ev));
  }
  prev_variant = std::move(name);
}

std::uint32_t max_outdegree_of(const graph::Csr& g) {
  std::uint32_t maxd = 0;
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    maxd = std::max(maxd, g.degree(v));
  }
  return maxd;
}

// What the serving path folds in a traversal over `g` under `direction`
// (nothing with the option off). BFS and CC report a gather volume of at
// least n, SSSP a flat 2m + n; the push-only selectors of PageRank and the
// fused batches need no volume.
gg::PersistentBound persistent_for(const Thresholds& t,
                                   const AdaptiveOptions& opts,
                                   const graph::Csr& g, bool sssp,
                                   gg::Direction direction) {
  if (!opts.persistent) return {};
  std::vector<std::uint64_t> degree_counts;
  if (direction == gg::Direction::adaptive) {
    degree_counts.resize(std::size_t{max_outdegree_of(g)} + 1);
    for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
      ++degree_counts[g.degree(v)];
    }
  }
  const std::uint64_t gather_min =
      (sssp ? 2 * g.num_edges() : 0) + g.num_nodes;
  gg::PersistentBound b =
      persistent_bound(t, direction, gather_min, degree_counts);
  b.init_kernel = true;
  return b;
}


// Query-start representation resolution for the engines without an
// in-engine controller (SSSP/CC): picks the layout once, on the same pure
// cost function the BFS controller uses. The resolved host view is either
// the caller's cached one (AdaptiveOptions.engine.reps, Session/service
// paths) or a local scratch conversion (one-shot paths).
struct RepResolution {
  gg::Representation kind = gg::Representation::plain;
  const graph::RelabeledGraph* external = nullptr;
  std::optional<graph::RelabeledGraph> scratch;
  const graph::RelabeledGraph& view() const {
    return scratch ? *scratch : *external;
  }
};

void resolve_representation(const Thresholds& t, const AdaptiveOptions& opts,
                            const graph::Csr& g, const gg::DeviceGraph* dg,
                            RepResolution& out) {
  gg::Representation kind = opts.representation;
  if (kind == gg::Representation::adaptive) {
    double avg = 0.0;
    double stddev = 0.0;
    if (dg != nullptr) {
      avg = dg->avg_outdegree;
      stddev = dg->outdeg_stddev;
    } else {
      const graph::GraphStats s = graph::GraphStats::compute(g);
      avg = s.outdeg_avg;
      stddev = s.outdeg_stddev;
    }
    kind = decide_representation(t, g.num_nodes, avg, stddev,
                                 max_outdegree_of(g));
  }
  if (kind == gg::Representation::plain) return;
  out.kind = kind;
  const gg::RepSet* rs = opts.engine.reps;
  const graph::RelabeledGraph* view =
      kind == gg::Representation::relabelled ? (rs ? rs->rel : nullptr)
                                             : (rs ? rs->bin : nullptr);
  if (view != nullptr) {
    out.external = view;
  } else {
    out.scratch = kind == gg::Representation::relabelled
                      ? graph::relabel_by_degree(g)
                      : graph::build_binned(g);
  }
}

}  // namespace

void rep_payload_to_original(std::vector<std::uint32_t>& payload,
                             const graph::RelabeledGraph& view,
                             std::uint32_t width) {
  std::vector<std::uint32_t> orig(view.new_id.size() * width);
  for (std::size_t v = 0; v < view.new_id.size(); ++v) {
    const auto from = payload.begin() +
                      static_cast<std::ptrdiff_t>(view.new_id[v]) * width;
    std::copy(from, from + width,
              orig.begin() + static_cast<std::ptrdiff_t>(v * width));
  }
  payload.swap(orig);
}

// A binned layout's pad slots are singleton components no original node maps
// to; they drop out of the recount here.
void rep_canonicalize_cc(gg::GpuCcResult& r, const graph::RelabeledGraph& view) {
  const auto n = static_cast<std::uint32_t>(view.new_id.size());
  std::vector<std::uint32_t> min_orig(r.component.size(), graph::kInfinity);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t& slot = min_orig[r.component[view.new_id[v]]];
    slot = std::min(slot, v);
  }
  std::vector<std::uint32_t> orig(n);
  std::uint32_t count = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    orig[v] = min_orig[r.component[view.new_id[v]]];
    if (orig[v] == v) ++count;
  }
  r.component.swap(orig);
  r.num_components = count;
}

gg::VariantSelector make_adaptive_selector(const Thresholds& thresholds) {
  return make_adaptive_selector(thresholds, 1, "adaptive");
}

gg::VariantSelector make_adaptive_selector(const Thresholds& thresholds,
                                           std::uint32_t interval,
                                           const char* algo,
                                           gg::Direction direction,
                                           gg::Representation representation) {
  // The engine copies the selector; the prev-variant state is shared across
  // copies so the switch flag tracks the single underlying traversal.
  auto prev = std::make_shared<std::string>();
  return [thresholds, interval, algo, direction, representation,
          prev](const gg::SelectorInput& in) {
    gg::Variant v = decide(thresholds, in.ws_size, in.avg_outdegree,
                           in.num_nodes, in.outdeg_stddev);
    if (direction == gg::Direction::adaptive) {
      // Direction-optimizing controller: pure hysteresis over the engine's
      // own frontier bookkeeping (in.direction is what is currently running,
      // so the state round-trips through the engine, not the selector).
      v.direction = decide_direction(thresholds, in.direction,
                                     in.frontier_edges, in.unexplored_edges,
                                     in.num_nodes);
    } else {
      v.direction = direction;
    }
    if (representation == gg::Representation::adaptive &&
        (in.rel_available || in.bin_available)) {
      // Representation controller: the static preference over the logical
      // graph's topology, amortization-gated against what remains of the
      // traversal (in.representation round-trips through the engine like
      // the direction state).
      const gg::Representation want = decide_representation(
          thresholds, in.num_nodes, in.avg_outdegree, in.outdeg_stddev,
          in.max_outdegree);
      const bool resident =
          want == gg::Representation::relabelled   ? in.rel_resident
          : want == gg::Representation::binned     ? in.bin_resident
                                                   : true;
      v.representation = decide_representation_step(
          thresholds, in.representation, resident, in.ws_size,
          in.frontier_edges, in.unexplored_edges, in.num_edges, in.num_nodes,
          in.avg_outdegree, in.outdeg_stddev, in.max_outdegree);
    } else if (representation != gg::Representation::adaptive) {
      v.representation = representation;
    } else {
      v.representation = in.representation;
    }
    // Canonicalize before tracing so the logged variant is what executes.
    v = gg::normalize_direction(v);
    if (trace::active()) {
      emit_decision(thresholds, interval, algo, in, v, *prev);
    }
    return v;
  };
}

gg::GpuBfsResult adaptive_bfs(simt::Device& dev, const graph::Csr& g,
                              graph::NodeId source, const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  gg::RepSet rs;
  if (opts.representation != gg::Representation::plain) {
    // One-shot adaptive starts plain — the conversion is unpaid until the
    // in-engine controller decides the remaining edge mass amortizes it. A
    // fixed alternate layout starts directly in it (the engine builds the
    // view itself when rs carries no cached ones).
    if (eo.reps != nullptr) rs = *eo.reps;
    rs.initial = opts.representation == gg::Representation::adaptive
                     ? gg::Representation::plain
                     : opts.representation;
    eo.reps = &rs;
  }
  return gg::run_bfs(dev, g, source,
                     make_adaptive_selector(t, eo.monitor_interval, "bfs",
                                            opts.direction, opts.representation),
                     eo, persistent_for(t, opts, g, false, opts.direction));
}

gg::GpuSsspResult adaptive_sssp(simt::Device& dev, const graph::Csr& g,
                                graph::NodeId source, const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  RepResolution rep;
  resolve_representation(t, opts, g, nullptr, rep);
  if (rep.kind == gg::Representation::plain) {
    return gg::run_sssp(
        dev, g, source,
        make_adaptive_selector(t, eo.monitor_interval, "sssp", opts.direction),
        eo, persistent_for(t, opts, g, true, opts.direction));
  }
  // SSSP has no in-engine rep controller: run the whole traversal in the
  // resolved layout and map distances back. The cached CSC (if any) is of
  // the plain layout, so pull iterations rebuild their own transpose.
  eo.csc = nullptr;
  eo.reps = nullptr;
  const graph::RelabeledGraph& view = rep.view();
  gg::GpuSsspResult r = gg::run_sssp(
      dev, view.csr, view.new_id[source],
      make_adaptive_selector(t, eo.monitor_interval, "sssp", opts.direction,
                             rep.kind),
      eo, persistent_for(t, opts, view.csr, true, opts.direction));
  rep_payload_to_original(r.dist, view);
  return r;
}

gg::GpuCcResult adaptive_cc(simt::Device& dev, const graph::Csr& g,
                            const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  RepResolution rep;
  resolve_representation(t, opts, g, nullptr, rep);
  if (rep.kind == gg::Representation::plain) {
    return gg::run_cc(
        dev, g,
        make_adaptive_selector(t, eo.monitor_interval, "cc", opts.direction),
        eo, persistent_for(t, opts, g, false, opts.direction));
  }
  eo.csc = nullptr;
  eo.reps = nullptr;
  const graph::RelabeledGraph& view = rep.view();
  gg::GpuCcResult r = gg::run_cc(
      dev, view.csr,
      make_adaptive_selector(t, eo.monitor_interval, "cc", opts.direction,
                             rep.kind),
      eo, persistent_for(t, opts, view.csr, false, opts.direction));
  rep_canonicalize_cc(r, view);
  return r;
}

gg::GpuMstResult adaptive_mst(simt::Device& dev, const graph::Csr& g,
                              const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  const gg::EngineOptions eo = engine_opts(opts);
  return gg::run_mst(dev, g, make_adaptive_selector(t, eo.monitor_interval, "mst"),
                     eo);
}

gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, const graph::Csr& g,
                                        const gg::PageRankOptions& pr,
                                        const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::PageRankOptions options = pr;
  options.engine = engine_opts(opts);
  return gg::run_pagerank(
      dev, g,
      make_adaptive_selector(t, options.engine.monitor_interval, "pagerank"),
      options, persistent_for(t, opts, g, false, gg::Direction::push));
}

gg::GpuBfsResult adaptive_bfs(simt::Device& dev, gg::DeviceGraph& dg,
                              const graph::Csr& g, graph::NodeId source,
                              const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  gg::RepSet rs;
  if (opts.representation != gg::Representation::plain) {
    if (eo.reps != nullptr) rs = *eo.reps;
    if (opts.representation != gg::Representation::adaptive) {
      rs.initial = opts.representation;
    } else {
      // Resident adaptive: the upload-time decision may start the traversal
      // directly in the preferred layout, but only when that layout is
      // already device-resident (a previous query paid the conversion) —
      // otherwise start plain and let the controller amortization-check it.
      const gg::Representation want = decide_representation(
          t, g.num_nodes, dg.avg_outdegree, dg.outdeg_stddev,
          max_outdegree_of(g));
      rs.initial = want != gg::Representation::plain &&
                           dg.rep_resident(want, /*with_weights=*/false)
                       ? want
                       : gg::Representation::plain;
    }
    eo.reps = &rs;
  }
  return gg::run_bfs(dev, dg, g, source,
                     make_adaptive_selector(t, eo.monitor_interval, "bfs",
                                            opts.direction, opts.representation),
                     eo, persistent_for(t, opts, g, false, opts.direction));
}

gg::GpuSsspResult adaptive_sssp(simt::Device& dev, gg::DeviceGraph& dg,
                                const graph::Csr& g, graph::NodeId source,
                                const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  RepResolution rep;
  resolve_representation(t, opts, g, &dg, rep);
  if (rep.kind == gg::Representation::plain) {
    return gg::run_sssp(
        dev, dg, g, source,
        make_adaptive_selector(t, eo.monitor_interval, "sssp", opts.direction),
        eo, persistent_for(t, opts, g, true, opts.direction));
  }
  eo.csc = nullptr;
  eo.reps = nullptr;
  const graph::RelabeledGraph& view = rep.view();
  gg::DeviceGraph* rdg = nullptr;
  {
    // The conversion upload bills on the traversal's stream, like the
    // lazy CSC upload inside the engines.
    simt::StreamGuard sguard(dev, eo.stream);
    rdg = &dg.ensure_rep_resident(dev, rep.kind, view, /*with_weights=*/true);
  }
  gg::GpuSsspResult r = gg::run_sssp(
      dev, *rdg, view.csr, view.new_id[source],
      make_adaptive_selector(t, eo.monitor_interval, "sssp", opts.direction,
                             rep.kind),
      eo, persistent_for(t, opts, view.csr, true, opts.direction));
  rep_payload_to_original(r.dist, view);
  return r;
}

gg::GpuCcResult adaptive_cc(simt::Device& dev, gg::DeviceGraph& dg,
                            const graph::Csr& g, const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  RepResolution rep;
  resolve_representation(t, opts, g, &dg, rep);
  if (rep.kind == gg::Representation::plain) {
    return gg::run_cc(
        dev, dg, g,
        make_adaptive_selector(t, eo.monitor_interval, "cc", opts.direction),
        eo, persistent_for(t, opts, g, false, opts.direction));
  }
  eo.csc = nullptr;
  eo.reps = nullptr;
  const graph::RelabeledGraph& view = rep.view();
  gg::DeviceGraph* rdg = nullptr;
  {
    simt::StreamGuard sguard(dev, eo.stream);
    rdg = &dg.ensure_rep_resident(dev, rep.kind, view, /*with_weights=*/false);
  }
  gg::GpuCcResult r = gg::run_cc(
      dev, *rdg, view.csr,
      make_adaptive_selector(t, eo.monitor_interval, "cc", opts.direction,
                             rep.kind),
      eo, persistent_for(t, opts, view.csr, false, opts.direction));
  rep_canonicalize_cc(r, view);
  return r;
}

gg::GpuPageRankResult adaptive_pagerank(simt::Device& dev, gg::DeviceGraph& dg,
                                        const graph::Csr& g,
                                        const gg::PageRankOptions& pr,
                                        const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::PageRankOptions options = pr;
  options.engine = engine_opts(opts);
  return gg::run_pagerank(
      dev, dg, g,
      make_adaptive_selector(t, options.engine.monitor_interval, "pagerank"),
      options, persistent_for(t, opts, g, false, gg::Direction::push));
}

gg::GpuMultiResult adaptive_bfs_multi(simt::Device& dev, gg::DeviceGraph& dg,
                                      const graph::Csr& g,
                                      std::span<const graph::NodeId> sources,
                                      const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  const gg::EngineOptions eo = engine_opts(opts);
  return gg::run_bfs_multi(
      dev, dg, g, sources,
      make_adaptive_selector(t, eo.monitor_interval, "msbfs"), eo,
      persistent_for(t, opts, g, false, gg::Direction::push));
}

gg::GpuMultiResult adaptive_sssp_multi(simt::Device& dev, gg::DeviceGraph& dg,
                                       const graph::Csr& g,
                                       std::span<const graph::NodeId> sources,
                                       const AdaptiveOptions& opts) {
  const Thresholds t = effective_thresholds(dev, opts);
  gg::EngineOptions eo = engine_opts(opts);
  RepResolution rep;
  resolve_representation(t, opts, g, &dg, rep);
  if (rep.kind == gg::Representation::plain) {
    return gg::run_sssp_multi(
        dev, dg, g, sources,
        make_adaptive_selector(t, eo.monitor_interval, "mssp"), eo,
        persistent_for(t, opts, g, true, gg::Direction::push));
  }
  eo.csc = nullptr;
  eo.reps = nullptr;
  const graph::RelabeledGraph& view = rep.view();
  gg::DeviceGraph* rdg = nullptr;
  {
    simt::StreamGuard sguard(dev, eo.stream);
    rdg = &dg.ensure_rep_resident(dev, rep.kind, view, /*with_weights=*/true);
  }
  std::vector<graph::NodeId> slots(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    slots[i] = view.new_id[sources[i]];
  }
  gg::GpuMultiResult r = gg::run_sssp_multi(
      dev, *rdg, view.csr, slots,
      make_adaptive_selector(t, eo.monitor_interval, "mssp",
                             gg::Direction::push, rep.kind),
      eo, persistent_for(t, opts, view.csr, true, gg::Direction::push));
  rep_payload_to_original(r.values, view, r.num_sources);
  return r;
}

}  // namespace rt
