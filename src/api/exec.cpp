#include "api/exec.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "cpu/bfs_serial.h"
#include "cpu/cc_serial.h"
#include "cpu/cpu_cost_model.h"
#include "cpu/pagerank_serial.h"
#include "cpu/sssp_serial.h"
#include "runtime/adaptive_engine.h"

namespace exec {
namespace {

using adaptive::Policy;
using gg::Representation;

void check(const adaptive::Graph& g, const Query& q) {
  if (q.algo == svc::Algo::bfs || q.algo == svc::Algo::sssp) {
    AGG_CHECK(q.source < g.num_nodes());
  }
  if (q.algo == svc::Algo::sssp) {
    AGG_CHECK_MSG(g.is_weighted(),
                  "call set_uniform_weights() or load weights first");
  }
}

// Calls `engine` with the resident copy when there is one and without it
// otherwise, where the engines' one-shot forms upload and release per call.
template <typename Engine>
auto on(gg::DeviceGraph* dg, Engine&& engine) {
  return dg != nullptr ? engine(*dg) : engine();
}

// Frees the buffers of `dg`, nested layouts included, that were allocated at
// or above `frontier` (by the attempt that just faulted), and forgets the
// nested layouts that leaves empty.
void release_since(simt::Device& dev, gg::DeviceGraph& dg,
                   std::uint64_t frontier) {
  for (simt::DeviceBuffer<std::uint32_t>* b :
       {&dg.row_offsets, &dg.col_indices, &dg.weights, &dg.in_row_offsets,
        &dg.in_col_indices, &dg.in_weights, &dg.rel.new_id, &dg.rel.old_id,
        &dg.bin.new_id, &dg.bin.old_id}) {
    if (b->valid() && b->base_addr() >= frontier) dev.free(*b);
  }
  for (gg::DeviceGraph::RepResident* r : {&dg.rel, &dg.bin}) {
    if (!r->dg) continue;
    release_since(dev, *r->dg, frontier);
    if (!r->dg->row_offsets.valid()) r->dg.reset();
  }
}

// The Graph structures q's engines read, built on first use and cached by
// the Graph: the CSR the traversal runs on (cc: the closure), the CSC for
// pull iterations, and the layout views — both handed to the engines, or
// the one a fixed _REL/_BIN variant of SSSP or CC runs on whole.
struct GraphViews {
  Representation rep = Representation::plain;  // the layout asked for
  const graph::Csr* base = nullptr;
  const graph::Csr* csc = nullptr;
  gg::RepSet reps;  // handed views; empty when none
  const graph::RelabeledGraph* layout = nullptr;
};

GraphViews views_for(const adaptive::Graph& g, const Query& q) {
  const Policy& p = q.policy;
  const bool fixed = p.mode == Policy::Mode::fixed_variant;
  GraphViews v;
  // A fixed variant's _REL/_BIN suffix, or the adaptive policy's
  // representation knob.
  v.rep = fixed ? gg::normalize_representation(p.variant).representation
                : p.options.representation;
  v.base = q.algo == svc::Algo::cc ? &arc_closure(g, p.symmetrize) : &g.csr();
  if (q.algo == svc::Algo::pagerank) return v;
  const bool of_sym = v.base != &g.csr();
  // SSSP and CC have no in-engine layout controller: a fixed _REL/_BIN
  // variant runs the whole traversal on that layout's CSR. The Graph's CSC
  // is of the plain layout, so its pull iterations transpose the layout
  // themselves. The BFS engine owns layouts end to end.
  if (fixed && v.rep != Representation::plain && q.algo != svc::Algo::bfs) {
    v.layout = v.rep == Representation::relabelled ? &g.relabelled_view(of_sym)
                                                   : &g.binned_view(of_sym);
    return v;
  }
  if (q.algo != svc::Algo::cc && p.wants_pull()) v.csc = &g.csc();
  // The Graph's cached views (of the closure for cc), so repeated queries
  // share one conversion.
  if (v.rep != Representation::plain) {
    v.reps = {&g.relabelled_view(of_sym), &g.binned_view(of_sym), v.rep};
  }
  return v;
}

// The engine call for q, on `res` when it is uploaded.
svc::Payload dispatch(simt::Device& dev, Resident& res,
                      const adaptive::Graph& g, const Query& q) {
  const Policy& p = q.policy;
  const bool fixed = p.mode == Policy::Mode::fixed_variant;
  const gg::VariantSelector variant = gg::fixed_variant(p.variant);
  const GraphViews v = views_for(g, q);
  rt::AdaptiveOptions ao = p.options;
  // Every adaptive query of the API starts with one init kernel and runs
  // small frontiers as persistent runs (DESIGN.md "Persistent
  // iterations"); the answers and decisions are those of the per-iteration
  // runtime.
  ao.persistent = true;
  gg::EngineOptions& eo = ao.engine;  // all a fixed variant runs on
  eo.stream = q.stream;
  eo.csc = v.csc;
  if (v.reps.rel != nullptr) eo.reps = &v.reps;
  gg::DeviceGraph* dg = res.uploaded() ? &res.dg : nullptr;
  // Resident, a fixed layout nests beside `base`, billed on the query's
  // stream; call-scoped, the one-shot engine uploads its CSR alone.
  const auto nested = [&](gg::DeviceGraph* base,
                          const graph::RelabeledGraph& view,
                          bool weights) -> gg::DeviceGraph* {
    if (base == nullptr) return nullptr;
    simt::StreamGuard sguard(dev, q.stream);
    return &base->ensure_rep_resident(dev, v.rep, view, weights);
  };

  switch (q.algo) {
    case svc::Algo::bfs: {
      // A fixed variant starts and stays in its layout, the adaptive
      // controller may switch mid-run.
      gg::GpuBfsResult r = on(dg, [&](auto&... d) {
        return fixed ? gg::run_bfs(dev, d..., g.csr(), q.source, variant, eo)
                     : rt::adaptive_bfs(dev, d..., g.csr(), q.source, ao);
      });
      adaptive::BfsResult out;
      out.level = std::move(r.level);
      out.metrics = std::move(r.metrics);
      return out;
    }
    case svc::Algo::sssp: {
      gg::GpuSsspResult r;
      if (v.layout != nullptr) {
        const graph::RelabeledGraph& view = *v.layout;
        r = on(nested(dg, view, true), [&](auto&... d) {
          return gg::run_sssp(dev, d..., view.csr, view.new_id[q.source],
                              variant, eo);
        });
        rt::rep_payload_to_original(r.dist, view);
      } else {
        r = on(dg, [&](auto&... d) {
          return fixed
                     ? gg::run_sssp(dev, d..., g.csr(), q.source, variant, eo)
                     : rt::adaptive_sssp(dev, d..., g.csr(), q.source, ao);
        });
      }
      adaptive::SsspResult out;
      out.dist = std::move(r.dist);
      out.metrics = std::move(r.metrics);
      return out;
    }
    case svc::Algo::cc: {
      const graph::Csr& csr = *v.base;
      const bool of_sym = &csr != &g.csr();
      gg::DeviceGraph* cdg = dg;
      if (of_sym && dg != nullptr) {
        if (!res.sym) {
          dev.check_pin("closure");
          simt::StreamGuard sguard(dev, q.stream);
          res.sym = gg::DeviceGraph::upload(dev, csr, /*with_weights=*/false);
        }
        cdg = &*res.sym;
      }
      gg::GpuCcResult r;
      if (v.layout != nullptr) {
        const graph::RelabeledGraph& view = *v.layout;
        r = on(nested(cdg, view, false), [&](auto&... d) {
          return gg::run_cc(dev, d..., view.csr, variant, eo);
        });
        rt::rep_canonicalize_cc(r, view);
      } else {
        r = on(cdg, [&](auto&... d) {
          return fixed ? gg::run_cc(dev, d..., csr, variant, eo)
                       : rt::adaptive_cc(dev, d..., csr, ao);
        });
      }
      adaptive::CcResult out;
      out.component = std::move(r.component);
      out.num_components = r.num_components;
      out.metrics = std::move(r.metrics);
      return out;
    }
    case svc::Algo::pagerank: {
      gg::PageRankOptions po;
      po.damping = q.damping;
      po.engine = eo;
      gg::GpuPageRankResult r = on(dg, [&](auto&... d) {
        return fixed ? gg::run_pagerank(dev, d..., g.csr(), variant, po)
                     : rt::adaptive_pagerank(dev, d..., g.csr(), po, ao);
      });
      adaptive::PageRankResult out;
      out.rank.assign(r.rank.begin(), r.rank.end());
      out.metrics = std::move(r.metrics);
      return out;
    }
  }
  AGG_CHECK(false);
  return {};
}

}  // namespace

void Resident::upload(simt::Device& dev, const adaptive::Graph& g) {
  release(dev);
  dg = gg::DeviceGraph::upload(dev, g.csr(), g.is_weighted());
}

gg::DeviceGraph::PatchStats Resident::patch(simt::Device& dev,
                                            const adaptive::Graph& g) {
  if (sym) sym->release(dev);
  sym.reset();
  return dg.patch(dev, g.csr(), dg.weights.valid());
}

void Resident::release(simt::Device& dev) {
  dg.release(dev);
  if (sym) sym->release(dev);
  sym.reset();
}

Resident Resident::alias() const {
  Resident a;
  a.dg = dg.alias();
  if (sym) a.sym = sym->alias();
  return a;
}

namespace {

std::uint32_t residency_bits(const gg::DeviceGraph& dg) {
  std::uint32_t bits = 0;
  std::uint32_t bit = 1;
  const auto add = [&](bool present) {
    if (present) bits |= bit;
    bit <<= 1;
  };
  const auto add_graph = [&](const gg::DeviceGraph& d) {
    add(d.row_offsets.valid());
    add(d.weights.valid());
    add(d.in_row_offsets.valid());
    add(d.in_weights.valid());
  };
  add_graph(dg);
  for (const gg::DeviceGraph::RepResident* r : {&dg.rel, &dg.bin}) {
    add(r->dg != nullptr);
    if (r->dg) {
      add_graph(*r->dg);
    } else {
      bit <<= 4;
    }
  }
  return bits;
}

// The traversal metrics of a recorded answer.
gg::TraversalMetrics& metrics_of(Recording& rec) {
  if (rec.batch) return rec.levels.metrics;
  gg::TraversalMetrics* m = nullptr;
  std::visit(
      [&m](auto& r) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(r)>,
                                      std::monostate>) {
          m = &r.metrics;
        }
      },
      rec.payload);
  AGG_CHECK(m != nullptr);
  return *m;
}

// Runs `unit` on `recorder`, filling rec's log and ok.
template <typename Unit>
void record_unit(simt::Device& recorder, const Resident& res,
                 const adaptive::Graph& g, Recording& rec, Unit&& unit) {
  AGG_CHECK(recorder.recording());
  rec.graph = &g;
  rec.version = g.version();
  rec.residency = residency(res);
  rec.props = recorder.props();
  rec.timing = recorder.timing();
  Resident view = res.alias();
  try {
    unit(recorder, view);
    rec.ok = true;
  } catch (const simt::PinRefused&) {
  } catch (const simt::DeviceFault&) {
    // The recorder's own out-of-memory: inline, the unit raises it for real.
  }
  rec.log = recorder.take_log();
}

}  // namespace

bool prepare_recording(const Resident& res, const adaptive::Graph& g,
                       const Query& q) {
  // Builds the host CSC as well when q's policy may pull. Whether the unit
  // does pull, and so pins the device CSC, shows only as it runs: then
  // check_pin refuses the recording.
  const GraphViews v = views_for(g, q);
  const bool weights = q.algo == svc::Algo::sssp;
  const gg::DeviceGraph* dg = &res.dg;
  if (v.base != &g.csr()) {
    if (!res.sym) return false;
    dg = &*res.sym;
  }
  return v.layout == nullptr || dg->rep_resident(v.rep, weights);
}

std::uint32_t residency(const Resident& res) {
  // 14 bits per copy: the plain CSR's and the closure's.
  return residency_bits(res.dg) | (res.sym ? residency_bits(*res.sym) << 14 : 0);
}

gg::GpuBfsMultiResult run_bfs_batch(simt::Device& dev, Resident& res,
                                    const adaptive::Graph& g,
                                    std::span<const graph::NodeId> sources,
                                    const adaptive::Policy& policy,
                                    simt::StreamId stream) {
  rt::AdaptiveOptions ao = policy.options;
  ao.engine.stream = stream;
  ao.persistent = true;  // as dispatch does
  return policy.mode == Policy::Mode::fixed_variant
             ? gg::run_bfs_multi(dev, res.dg, g.csr(), sources,
                                 gg::fixed_variant(policy.variant), ao.engine)
             : rt::adaptive_bfs_multi(dev, res.dg, g.csr(), sources, ao);
}

Recording record(simt::Device recorder, const Resident& res,
                 const adaptive::Graph& g, Query q) {
  Recording rec;
  // The stream is chosen at commit; the recorder has only its default one.
  q.stream = 0;
  record_unit(recorder, res, g, rec, [&](simt::Device& d, Resident& view) {
    rec.payload = run(d, view, g, q);
  });
  return rec;
}

Recording record_batch(simt::Device recorder, const Resident& res,
                       const adaptive::Graph& g,
                       std::vector<graph::NodeId> sources,
                       adaptive::Policy policy) {
  Recording rec;
  rec.batch = true;
  record_unit(recorder, res, g, rec, [&](simt::Device& d, Resident& view) {
    rec.levels = run_bfs_batch(d, view, g, sources, policy, 0);
  });
  return rec;
}

bool commit(simt::Device& dev, simt::StreamId stream, const Resident& res,
            const adaptive::Graph& g, Recording& rec) {
  if (!rec.ok || rec.graph != &g || rec.version != g.version() ||
      rec.props != dev.props() || rec.timing != dev.timing() ||
      rec.residency != residency(res) || !dev.fits(rec.log)) {
    return false;
  }
  simt::StreamGuard sguard(dev, stream);
  const simt::MarkValues placed = dev.replay(rec.log);
  gg::resolve_clock(metrics_of(rec), &placed);
  return true;
}

svc::Payload run(simt::Device& dev, Resident& res, const adaptive::Graph& g,
                 const Query& q) {
  AGG_CHECK_MSG(q.policy.mode != Policy::Mode::cpu_serial,
                "cpu_serial queries run on exec::run_cpu");
  check(g, q);
  const std::uint64_t mark = dev.mem_mark();
  const std::uint64_t frontier = dev.mem_frontier();
  try {
    return dispatch(dev, res, g, q);
  } catch (const simt::DeviceFault&) {
    // Free what this attempt pinned before reclaiming the scratch it
    // orphaned: the reclaim rolls back their accounting as well, so a
    // structure left in `res` would later be counted out a second time.
    release_since(dev, res.dg, frontier);
    if (res.sym) {
      release_since(dev, *res.sym, frontier);
      if (!res.sym->row_offsets.valid()) res.sym.reset();
    }
    dev.mem_reclaim(mark);
    throw;
  }
}

CpuAnswer run_cpu(const adaptive::Graph& g, const Query& q) {
  check(g, q);
  const cpu::CpuModel& model = cpu::CpuModel::core_i7();
  const std::uint32_t n = g.num_nodes();
  CpuAnswer a;
  switch (q.algo) {
    case svc::Algo::bfs: {
      cpu::BfsResult r = cpu::bfs(g.csr(), q.source);
      a.modeled_us = model.bfs_time_us(r.counts, n);
      adaptive::BfsResult out;
      out.level = std::move(r.level);
      out.cpu_wall_ms = r.wall_ms;
      a.payload = std::move(out);
      break;
    }
    case svc::Algo::sssp: {
      cpu::SsspResult r = cpu::dijkstra(g.csr(), q.source);
      a.modeled_us = model.dijkstra_time_us(r.counts, n);
      adaptive::SsspResult out;
      out.dist = std::move(r.dist);
      out.cpu_wall_ms = r.wall_ms;
      a.payload = std::move(out);
      break;
    }
    case svc::Algo::cc: {
      cpu::CcResult r =
          cpu::connected_components(arc_closure(g, q.policy.symmetrize));
      a.modeled_us = model.cc_time_us(r.counts, n);
      adaptive::CcResult out;
      out.component = std::move(r.component);
      out.num_components = r.num_components;
      out.cpu_wall_ms = r.wall_ms;
      a.payload = std::move(out);
      break;
    }
    case svc::Algo::pagerank: {
      cpu::PageRankOptions po;
      po.damping = q.damping;
      cpu::PageRankResult r = cpu::pagerank(g.csr(), po);
      a.modeled_us = model.pagerank_time_us(r.counts, n);
      adaptive::PageRankResult out;
      out.rank = std::move(r.rank);
      out.cpu_wall_ms = r.wall_ms;
      a.payload = std::move(out);
      break;
    }
  }
  return a;
}

const graph::Csr& arc_closure(const adaptive::Graph& g,
                              adaptive::Symmetrize s) {
  // symmetrized() is csr() itself on a symmetric graph, so `always` and
  // `auto_detect` coincide; `never` trusts the caller's claim of symmetry.
  return s == adaptive::Symmetrize::never ? g.csr() : g.symmetrized();
}

}  // namespace exec
