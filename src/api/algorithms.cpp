#include "api/algorithms.h"

#include "api/exec.h"
#include "api/session.h"
#include "cpu/mst_serial.h"
#include "runtime/adaptive_engine.h"

namespace adaptive {

namespace detail {

ErrorCode fault_code(const simt::DeviceFault& f) {
  if (f.permanent()) return ErrorCode::device_lost;
  switch (f.kind()) {
    case simt::FaultKind::alloc:
      return ErrorCode::device_oom;
    case simt::FaultKind::transfer:
      return ErrorCode::transfer_failed;
    case simt::FaultKind::kernel:
      return ErrorCode::kernel_fault;
  }
  return ErrorCode::internal;
}

}  // namespace detail

ParsedPolicy parse_policy(const std::string& name) {
  ParsedPolicy out;
  if (name == "adaptive") {
    out.policy = Policy::adapt();
    return out;
  }
  if (name == "cpu") {
    out.policy = Policy::cpu();
    return out;
  }
  if (const std::optional<gg::Variant> v = gg::try_parse_variant(name)) {
    if (v->direction == gg::Direction::adaptive) {
      // A fixed variant cannot host the direction controller (its selector
      // never re-decides); steer the caller to the adaptive policy.
      out.status = Status::error;
      out.code = ErrorCode::invalid_argument;
      out.error = "policy '" + name +
                  "': the _DO (direction-optimizing) suffix requires the "
                  "adaptive policy; use --policy=adaptive --direction=adaptive";
      return out;
    }
    if (v->representation == gg::Representation::adaptive) {
      // Same story for the representation controller: _AREP has no meaning
      // on a variant that never re-decides.
      out.status = Status::error;
      out.code = ErrorCode::invalid_argument;
      out.error =
          "policy '" + name +
          "': the _AREP (adaptive-representation) suffix requires the "
          "adaptive policy; use --policy=adaptive --representation=adaptive";
      return out;
    }
    out.policy = Policy::fixed(*v);
    return out;
  }
  out.status = Status::error;
  out.code = ErrorCode::invalid_argument;
  out.error = "unknown policy '" + name +
              "': expected adaptive, cpu, or a variant name like U_T_BM "
              "(optionally suffixed _PULL, then _REL or _BIN)";
  return out;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::none:
      return "none";
    case ErrorCode::device_oom:
      return "device_oom";
    case ErrorCode::transfer_failed:
      return "transfer_failed";
    case ErrorCode::kernel_fault:
      return "kernel_fault";
    case ErrorCode::device_lost:
      return "device_lost";
    case ErrorCode::deadline_exceeded:
      return "deadline_exceeded";
    case ErrorCode::queue_full:
      return "queue_full";
    case ErrorCode::invalid_argument:
      return "invalid_argument";
    case ErrorCode::io_error:
      return "io_error";
    case ErrorCode::internal:
      return "internal";
  }
  return "?";
}

const char* error_code_message(ErrorCode code) {
  switch (code) {
    case ErrorCode::none:
      return "no error";
    case ErrorCode::device_oom:
      return "simulated device memory exhausted";
    case ErrorCode::transfer_failed:
      return "host<->device transfer failed";
    case ErrorCode::kernel_fault:
      return "kernel launch failed";
    case ErrorCode::device_lost:
      return "device permanently lost";
    case ErrorCode::deadline_exceeded:
      return "modeled deadline exceeded";
    case ErrorCode::queue_full:
      return "admission queue full";
    case ErrorCode::invalid_argument:
      return "invalid argument";
    case ErrorCode::io_error:
      return "graph io failure";
    case ErrorCode::internal:
      return "internal error";
  }
  return "?";
}

namespace {

// One call on dev: the serial oracle answers a cpu_serial policy; any other
// runs call-scoped through exec::run, its fault surfaced as an error Result.
template <typename R>
R run_once(simt::Device& dev, const Graph& g, const exec::Query& q) {
  if (q.policy.mode == Policy::Mode::cpu_serial) {
    return std::get<R>(exec::run_cpu(g, q).payload);
  }
  exec::Resident call_scoped;
  try {
    return std::get<R>(exec::run(dev, call_scoped, g, q));
  } catch (const simt::DeviceFault& f) {
    return detail::fault_result<R>(f);
  }
}

}  // namespace

BfsResult bfs(simt::Device& dev, const Graph& g, NodeId source,
              const Policy& policy) {
  return run_once<BfsResult>(dev, g,
                             {.algo = svc::Algo::bfs,
                              .source = source,
                              .policy = policy,
                              .stream = policy.options.engine.stream});
}

SsspResult sssp(simt::Device& dev, const Graph& g, NodeId source,
                const Policy& policy) {
  return run_once<SsspResult>(dev, g,
                              {.algo = svc::Algo::sssp,
                               .source = source,
                               .policy = policy,
                               .stream = policy.options.engine.stream});
}

CcResult cc(simt::Device& dev, const Graph& g, const Policy& policy) {
  return run_once<CcResult>(dev, g,
                            {.algo = svc::Algo::cc,
                             .policy = policy,
                             .stream = policy.options.engine.stream});
}

PageRankResult pagerank(simt::Device& dev, const Graph& g, double damping,
                        const Policy& policy) {
  return run_once<PageRankResult>(dev, g,
                                  {.algo = svc::Algo::pagerank,
                                   .damping = damping,
                                   .policy = policy,
                                   .stream = policy.options.engine.stream});
}

MstResult mst(simt::Device& dev, const Graph& g, const Policy& policy) {
  AGG_CHECK_MSG(g.is_weighted(), "MST requires edge weights");
  const graph::Csr& csr = exec::arc_closure(g, policy.symmetrize);
  MstResult out;
  if (policy.mode == Policy::Mode::cpu_serial) {
    cpu::MstResult r = cpu::minimum_spanning_forest(csr);
    out.total_weight = r.total_weight;
    out.num_trees = r.num_trees;
    out.edges_in_forest = r.edges_in_forest;
    out.cpu_wall_ms = r.wall_ms;
    return out;
  }
  // MST contracts its copy in place, so it has no resident form: one upload
  // per call, whose buffers a fault orphans for the reclaim to recover.
  const std::uint64_t mark = dev.mem_mark();
  gg::GpuMstResult r;
  try {
    r = policy.mode == Policy::Mode::fixed_variant
            ? gg::run_mst(dev, csr, policy.variant, policy.options.engine)
            : rt::adaptive_mst(dev, csr, policy.options);
  } catch (const simt::DeviceFault& f) {
    dev.mem_reclaim(mark);
    return detail::fault_result<MstResult>(f);
  }
  out.total_weight = r.total_weight;
  out.num_trees = r.num_trees;
  out.edges_in_forest = r.edges_in_forest;
  out.metrics = std::move(r.metrics);
  return out;
}

// Device-less convenience overloads: route through the thread's default
// Session so repeated calls share one device (api/session.h).
BfsResult bfs(const Graph& g, NodeId source, const Policy& policy) {
  return Session::default_session().bfs(g, source, policy);
}

SsspResult sssp(const Graph& g, NodeId source, const Policy& policy) {
  return Session::default_session().sssp(g, source, policy);
}

CcResult cc(const Graph& g, const Policy& policy) {
  return Session::default_session().cc(g, policy);
}

MstResult mst(const Graph& g, const Policy& policy) {
  return Session::default_session().mst(g, policy);
}

PageRankResult pagerank(const Graph& g, double damping, const Policy& policy) {
  return Session::default_session().pagerank(g, damping, policy);
}

}  // namespace adaptive
