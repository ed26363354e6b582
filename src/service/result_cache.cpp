#include "service/result_cache.h"

#include <algorithm>

#include "gpu_graph/metrics.h"
#include "gpu_graph/variant.h"

namespace svc {

namespace {

// splitmix64 finalizer (common/prng.h uses the stateful form; hashing wants
// the pure mix of one word).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ mix64(v));
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

std::size_t metrics_bytes(const gg::TraversalMetrics& m) {
  // The clock marks, the last member, are empty in any answer: they only
  // carry a recorded traversal to its commit.
  return sizeof(m) - sizeof(m.clock) +
         m.iterations.size() * sizeof(m.iterations[0]);
}

}  // namespace

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::bfs:
      return "bfs";
    case Algo::sssp:
      return "sssp";
    case Algo::cc:
      return "cc";
    case Algo::pagerank:
      return "pagerank";
  }
  return "?";
}

std::size_t payload_bytes(const Payload& p) {
  // Fixed bookkeeping: key, LRU node, index slot, envelope scalars.
  constexpr std::size_t kEntryOverhead = 160;
  struct Visitor {
    std::size_t operator()(const std::monostate&) const { return 0; }
    std::size_t operator()(const adaptive::BfsResult& r) const {
      return vector_bytes(r.level) + metrics_bytes(r.metrics);
    }
    std::size_t operator()(const adaptive::SsspResult& r) const {
      return vector_bytes(r.dist) + metrics_bytes(r.metrics);
    }
    std::size_t operator()(const adaptive::CcResult& r) const {
      return vector_bytes(r.component) + metrics_bytes(r.metrics);
    }
    std::size_t operator()(const adaptive::PageRankResult& r) const {
      return vector_bytes(r.rank) + metrics_bytes(r.metrics);
    }
  };
  return kEntryOverhead + std::visit(Visitor{}, p);
}

std::size_t CacheKeyHash::operator()(const CacheKey& k) const {
  std::uint64_t h = combine(k.graph_key, k.version);
  h = combine(h, (static_cast<std::uint64_t>(k.algo) << 32) | k.source);
  h = combine(h, k.param_bits);
  h = combine(h, k.policy_sig);
  return static_cast<std::size_t>(h);
}

std::uint64_t policy_signature(const adaptive::Policy& policy) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(policy.mode));
  h = combine(h, static_cast<std::uint64_t>(policy.symmetrize));
  h = combine(h,
              (static_cast<std::uint64_t>(policy.variant.representation) << 32) |
                  (static_cast<std::uint64_t>(policy.variant.direction) << 24) |
                  (static_cast<std::uint64_t>(policy.variant.ordering) << 16) |
                  (static_cast<std::uint64_t>(policy.variant.mapping) << 8) |
                  static_cast<std::uint64_t>(policy.variant.repr));
  const rt::AdaptiveOptions& o = policy.options;
  // The traversal direction changes which kernels run (and, for adaptive
  // direction, the whole push<->pull trajectory): push/pull/adaptive answers
  // must never alias even though the payloads agree bit-for-bit (metrics and
  // modeled costs differ). The graph representation is the same story on
  // the layout axis: plain/relabelled/binned/adaptive runs traverse
  // different physical CSRs at different modeled costs.
  h = combine(h, static_cast<std::uint64_t>(o.direction));
  h = combine(h, static_cast<std::uint64_t>(o.representation));
  h = combine(h, o.thresholds_overridden ? 1 : 0);
  h = combine(h, double_bits(o.thresholds.t1_avg_outdegree));
  h = combine(h, double_bits(o.thresholds.t2_ws_size));
  h = combine(h, double_bits(o.thresholds.t3_fraction));
  h = combine(h, double_bits(o.thresholds.skew_weight));
  h = combine(h, double_bits(o.thresholds.do_alpha));
  h = combine(h, double_bits(o.thresholds.do_beta));
  h = combine(h, double_bits(o.thresholds.rep_cv));
  h = combine(h, double_bits(o.thresholds.rep_hub));
  h = combine(h, o.thresholds.rep_min_nodes);
  h = combine(h, double_bits(o.thresholds.rep_switch_fraction));
  h = combine(h, double_bits(o.thresholds.rep_upload_fraction));
  h = combine(h, o.monitor_interval);
  // Engine knobs that shape the adaptive trajectory; the stream is a
  // placement artifact and stays out of the signature.
  h = combine(h, (static_cast<std::uint64_t>(o.engine.thread_tpb) << 32) |
                     o.engine.block_tpb);
  return h;
}

CacheKey make_cache_key(std::uint64_t graph_key, std::uint64_t version,
                        Algo algo, graph::NodeId source, double damping,
                        const adaptive::Policy& policy) {
  CacheKey key;
  key.graph_key = graph_key;
  key.version = version;
  key.algo = static_cast<std::uint8_t>(algo);
  switch (algo) {
    case Algo::bfs:
    case Algo::sssp:
      key.source = source;
      break;
    case Algo::pagerank:
      key.param_bits = double_bits(damping);
      break;
    case Algo::cc:
      break;
  }
  key.policy_sig = policy_signature(policy);
  return key;
}

std::vector<std::uint32_t> affected_components(
    std::span<const std::uint32_t> old_labels, const graph::EdgeDelta& delta) {
  std::vector<std::uint32_t> affected;
  affected.reserve(2 * delta.num_ops());
  for (const graph::NodeId v : graph::delta_touched_nodes(delta)) {
    if (v < old_labels.size()) affected.push_back(old_labels[v]);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  return affected;
}

bool entry_survives_delta(const CacheKey& key,
                          std::span<const std::uint32_t> old_labels,
                          std::span<const std::uint32_t> affected_sorted) {
  if (affected_sorted.empty()) return true;  // empty delta changes nothing
  const Algo algo = static_cast<Algo>(key.algo);
  // cc and pagerank are whole-graph answers: any arc change can move them.
  if (algo != Algo::bfs && algo != Algo::sssp) return false;
  if (key.source >= old_labels.size()) return false;
  return !std::binary_search(affected_sorted.begin(), affected_sorted.end(),
                             old_labels[key.source]);
}

}  // namespace svc
