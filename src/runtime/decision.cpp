#include "runtime/decision.h"

#include <algorithm>
#include <cmath>

namespace rt {

Thresholds Thresholds::for_device(const simt::DeviceProps& props,
                                  std::uint32_t thread_tpb, double t3_fraction) {
  Thresholds t;
  t.t1_avg_outdegree = simt::kWarpSize;  // Sec. VII.B: "we set T1 to 32"
  t.t2_ws_size = static_cast<double>(thread_tpb) * props.num_sms;
  t.t3_fraction = t3_fraction;
  return t;
}

gg::Variant decide(const Thresholds& t, std::uint64_t ws_size, double avg_outdegree,
                   std::uint32_t num_nodes, double outdeg_stddev) {
  gg::Variant v;
  v.ordering = gg::Ordering::unordered;  // Sec. VI.A: adaptive pool is unordered

  const auto ws = static_cast<double>(ws_size);
  if (ws < t.t2_ws_size) {
    // Left of T2: too little coarse-grained parallelism for thread mapping,
    // and a bitmap over N nodes would be nearly all waste.
    v.mapping = gg::Mapping::block;
    v.repr = gg::WorksetRepr::queue;
    return v;
  }
  const double effective_outdegree =
      avg_outdegree + t.skew_weight * outdeg_stddev;
  v.mapping = effective_outdegree < t.t1_avg_outdegree ? gg::Mapping::thread
                                                       : gg::Mapping::block;
  const double t3 = t.t3_fraction * static_cast<double>(num_nodes);
  v.repr = ws > t3 ? gg::WorksetRepr::bitmap : gg::WorksetRepr::queue;
  return v;
}

gg::Direction decide_direction(const Thresholds& t, gg::Direction current,
                               std::uint64_t frontier_edges,
                               std::uint64_t unexplored_edges,
                               std::uint32_t num_nodes) {
  // Modeled cost of one gather iteration: a dense sweep over every vertex
  // plus the unexplored in-edges it still has to read. A scatter iteration
  // costs the frontier's out-edges — with contended atomics, which is what
  // pull saves. Flip to pull when the scatter mass covers do_alpha of the
  // gather volume; flip back once it drains below the (much lower) do_beta
  // band. The gap between the two is the hysteresis that keeps a post-peak
  // frontier pulling and makes push<->pull<->push thrash impossible.
  const double gather_volume =
      static_cast<double>(unexplored_edges) + static_cast<double>(num_nodes);
  const double scatter_mass = static_cast<double>(frontier_edges);
  if (current != gg::Direction::pull) {
    return scatter_mass > t.do_alpha * gather_volume ? gg::Direction::pull
                                                     : gg::Direction::push;
  }
  return scatter_mass < t.do_beta * gather_volume ? gg::Direction::push
                                                  : gg::Direction::pull;
}

gg::Representation decide_representation(const Thresholds& t,
                                         std::uint32_t num_nodes,
                                         double avg_outdegree,
                                         double outdeg_stddev,
                                         std::uint32_t max_outdegree) {
  if (num_nodes < t.rep_min_nodes || avg_outdegree <= 0.0) {
    return gg::Representation::plain;
  }
  const double cv = outdeg_stddev / avg_outdegree;
  if (cv <= t.rep_cv) return gg::Representation::plain;
  const double hub_ratio = static_cast<double>(max_outdegree) / avg_outdegree;
  return hub_ratio >= t.rep_hub ? gg::Representation::relabelled
                                : gg::Representation::binned;
}

gg::Representation decide_representation_step(
    const Thresholds& t, gg::Representation current, bool target_resident,
    std::uint64_t ws_size, std::uint64_t frontier_edges,
    std::uint64_t unexplored_edges, std::uint64_t num_edges,
    std::uint32_t num_nodes, double avg_outdegree, double outdeg_stddev,
    std::uint32_t max_outdegree) {
  const gg::Representation want = decide_representation(
      t, num_nodes, avg_outdegree, outdeg_stddev, max_outdegree);
  if (want == current) return current;
  // Layout only matters once the working set saturates the device; a
  // sub-T2 frontier runs B_QU where per-warp divergence is irrelevant.
  if (static_cast<double>(ws_size) < t.t2_ws_size) return current;
  // Amortization: the conversion (permutation build + copy-engine upload +
  // payload migration) must be paid back by the traversal that remains.
  const double remaining = static_cast<double>(frontier_edges) +
                           static_cast<double>(unexplored_edges);
  const double fraction =
      target_resident ? t.rep_switch_fraction : t.rep_upload_fraction;
  if (remaining < fraction * static_cast<double>(num_edges)) return current;
  return want;
}

gg::PersistentBound persistent_bound(
    const Thresholds& t, gg::Direction direction, std::uint64_t gather_min,
    std::span<const std::uint64_t> degree_counts) {
  gg::PersistentBound b;
  if (direction == gg::Direction::pull || !(t.t2_ws_size > 0)) return b;
  // For an integer |WS|, |WS| < T2 exactly when |WS| < ceil(T2).
  b.t2 = static_cast<std::uint64_t>(std::ceil(std::min(t.t2_ws_size, 0x1p62)));
  b.ws_below = b.t2;
  if (direction != gg::Direction::adaptive) return b;
  // decide_direction compares double(frontier_edges) against do_alpha *
  // (proxy + n) in doubles; it is monotone in the proxy, so this product is
  // its smallest right side.
  const double volume = t.do_alpha * static_cast<double>(gather_min);
  std::uint64_t a = 0;
  if (volume >= 0) {
    // Walk the outdegrees from the largest down, taking whole buckets while
    // the prefix sum, compared as decide_direction compares it, fits.
    a = b.t2;  // every edge fits: no working set can cross the volume
    std::uint64_t k = 0;
    std::uint64_t sum = 0;
    for (std::size_t d = degree_counts.size(); d-- > 1;) {
      const std::uint64_t c = degree_counts[d];
      if (static_cast<double>(sum + c * d) <= volume) {
        k += c;
        sum += c * d;
        continue;
      }
      // Part of this bucket: the largest j with sum + j * d inside the
      // volume in the same arithmetic, whatever the division rounded to.
      const double room =
          (volume - static_cast<double>(sum)) / static_cast<double>(d);
      auto j =
          static_cast<std::uint64_t>(std::min(room, static_cast<double>(c)));
      while (j > 0 && static_cast<double>(sum + j * d) > volume) --j;
      while (j + 1 < c && static_cast<double>(sum + (j + 1) * d) <= volume) ++j;
      a = k + j;
      break;
    }
  }
  b.has_alpha_term = true;
  b.alpha_term = a;
  b.ws_below = std::min(b.t2, a);
  return b;
}

bool choose_cpu_fallback(const FallbackInput& in) {
  if (!in.device_healthy) return true;
  if (in.deadline_us <= 0) return false;
  const double deadline = in.submit_us + in.deadline_us;
  if (in.gpu_start_us <= deadline) return false;
  // The GPU cannot even start in time; the CPU is the only path that might
  // still meet the deadline.
  return in.cpu_start_us + in.cpu_estimate_us <= deadline;
}

}  // namespace rt
