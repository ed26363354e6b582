// Query-result cache of svc::GraphService (and so of adaptive::Session).
//
// Motivation (ISSUE 5 / ROADMAP "serving scale"): skewed query traffic —
// millions of users hitting the same (graph, algo, source) keys — pays full
// device cost per query even though the answer never changes while the graph
// does not. Every algorithm here is deterministic, so a completed exact
// result can be replayed from host memory at modeled copy cost: no kernel
// launch, no PCIe round-trip, no stream occupancy.
//
// Keying & invalidation: entries are keyed by CacheKey — a stable graph key
// (the service's graph id; the version field adds its upload generation),
// the graph *version* (adaptive::Graph::version() bumps on every
// mutation), the algorithm, its source/parameters, and a policy signature.
// A version bump therefore never produces a stale hit, and re-uploading a
// graph under the same id bumps the upload generation, which retires every
// older entry. invalidate_graph() additionally drops entries eagerly so
// their bytes return to the budget.
//
// Capacity: byte-bounded LRU. The recency list *is* the eviction order —
// the hash index only accelerates lookup — so eviction is deterministic and
// identical at any --sim-threads value. payload_bytes() models an entry's
// host-memory footprint (result vectors + per-iteration metrics + fixed
// bookkeeping overhead).
//
// Cost model: a hit costs CacheCostModel::hit_us(bytes) of modeled host time
// (index probe + memcpy of the payload at host memory bandwidth). Callers
// charge that to their host timeline; the device is untouched.
//
// Resilience interaction: degraded (CPU-oracle) results are exact and
// therefore cacheable; faulted partial attempts never reach insert() because
// the service only stores payloads of completed queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "api/algorithms.h"
#include "graph/csr.h"
#include "graph/delta.h"

namespace svc {

enum class Algo { bfs, sssp, cc, pagerank };
const char* algo_name(Algo a);

// The payload variant a service query can produce; also the value type the
// result cache stores (one entry per completed exact answer).
using Payload = std::variant<std::monostate, adaptive::BfsResult,
                             adaptive::SsspResult, adaptive::CcResult,
                             adaptive::PageRankResult>;

// Modeled host-memory footprint of a cached payload: result vectors,
// per-iteration metrics samples, and fixed per-entry bookkeeping.
std::size_t payload_bytes(const Payload& p);

struct CacheKey {
  std::uint64_t graph_key = 0;  // owner-scoped stable graph identity
  std::uint64_t version = 0;    // graph version (+ upload generation)
  std::uint8_t algo = 0;        // static_cast<uint8_t>(Algo)
  std::uint32_t source = 0;     // bfs/sssp; 0 for cc/pagerank
  std::uint64_t param_bits = 0; // pagerank damping bits; 0 otherwise
  std::uint64_t policy_sig = 0; // policy_signature(req.policy)

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const;
};

// Digest of every policy field that can change a query's answer or its
// adaptive execution: mode, fixed variant, symmetrization, thresholds and
// monitoring interval, tpb knobs. The dispatch stream is deliberately
// excluded — it is a placement artifact, not part of the question asked.
std::uint64_t policy_signature(const adaptive::Policy& policy);

CacheKey make_cache_key(std::uint64_t graph_key, std::uint64_t version,
                        Algo algo, graph::NodeId source, double damping,
                        const adaptive::Policy& policy);

// ---- delta-aware invalidation predicate (ISSUE 9) ----
// The old-component labels touched by a delta: labels of every insert and
// delete endpoint, sorted and deduplicated. `old_labels` are the weak
// connectivity labels of the graph BEFORE the delta (graph::IncrementalCc).
std::vector<std::uint32_t> affected_components(
    std::span<const std::uint32_t> old_labels, const graph::EdgeDelta& delta);

// Conservative per-component survival test: a BFS/SSSP answer from source s
// is provably unchanged when no delta endpoint lies in s's old weak
// component — directed reachability from s is contained in that component,
// and a kept entry also implies no insert attaches to it, so every path
// from s runs over unchanged arcs. Global answers (cc, pagerank) never
// survive a non-empty delta.
bool entry_survives_delta(const CacheKey& key,
                          std::span<const std::uint32_t> old_labels,
                          std::span<const std::uint32_t> affected_sorted);

// Modeled cost of serving a hit: one index probe plus copying the payload
// out of the cache at host memcpy bandwidth.
struct CacheCostModel {
  double lookup_us = 0.5;       // hash probe + entry bookkeeping
  double host_copy_gbps = 12.0; // DDR3-class memcpy bandwidth

  double hit_us(std::size_t bytes) const {
    // 1 GB/s = 1e3 bytes/us.
    return lookup_us + static_cast<double>(bytes) / (host_copy_gbps * 1e3);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // entries dropped by invalidate_graph()
  std::uint64_t rejected = 0;       // single value larger than capacity
  std::uint64_t delta_kept = 0;     // entries carried across a delta_invalidate
  std::uint64_t delta_dropped = 0;  // entries evicted by delta_invalidate
};

// Byte-capacity-bounded LRU, templated on the stored value so tests can
// exercise the replacement policy with trivial values. Deterministic: the
// recency list drives eviction; the unordered index never decides anything.
template <typename Value>
class ResultCache {
 public:
  struct Entry {
    CacheKey key;
    Value value;
    std::size_t bytes = 0;
    // Modeled time the answer was ready: a hit is never served before it.
    double ready_us = 0;
  };

  explicit ResultCache(std::size_t capacity_bytes = 0)
      : capacity_(capacity_bytes) {}

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t bytes_in_use() const { return bytes_; }
  std::size_t entries() const { return lru_.size(); }
  const CacheStats& stats() const { return stats_; }

  // Re-sizes the budget; shrinking evicts from the LRU tail immediately.
  void set_capacity(std::size_t capacity_bytes) {
    capacity_ = capacity_bytes;
    while (bytes_ > capacity_) evict_one();
  }

  // Whether `key` has an entry; unlike lookup(), touches neither the LRU
  // order nor the stats.
  bool contains(const CacheKey& key) const {
    return enabled() && index_.count(key) != 0;
  }

  // Returns the entry (and marks it most-recently-used) or nullptr. The
  // pointer is valid until the next mutating call.
  const Entry* lookup(const CacheKey& key) {
    if (!enabled()) return nullptr;
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return &*it->second;
  }

  // Inserts `key`, ready at modeled time `ready_us`, evicting
  // least-recently-used entries until it fits; returns the number of entries
  // evicted. A value larger than the whole budget is rejected
  // (stats().rejected); a key already present keeps its existing entry
  // (identical queries produce identical exact payloads).
  std::size_t insert(const CacheKey& key, Value value, std::size_t bytes,
                     double ready_us = 0) {
    if (!enabled()) return 0;
    if (index_.count(key)) return 0;
    if (bytes > capacity_) {
      ++stats_.rejected;
      return 0;
    }
    std::size_t evicted = 0;
    while (bytes_ + bytes > capacity_) {
      evict_one();
      ++evicted;
    }
    lru_.push_front(Entry{key, std::move(value), bytes, ready_us});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    ++stats_.insertions;
    return evicted;
  }

  // Drops every entry of `graph_key`, regardless of version; returns the
  // number of entries removed.
  std::size_t invalidate_graph(std::uint64_t graph_key) {
    std::size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.graph_key == graph_key) {
        bytes_ -= it->bytes;
        index_.erase(it->key);
        it = lru_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    stats_.invalidations += dropped;
    return dropped;
  }

  // Delta-aware invalidation (ISSUE 9): after a batched mutation of
  // `graph_key`, drops only the entries `keep` rejects and re-keys the
  // survivors to `new_version` so post-mutation lookups (which use the new
  // version) still hit them. `keep` receives each entry's key and must be
  // conservative: keep only answers provably unchanged by the delta (the
  // service passes a per-component reachability test built on incremental
  // CC labels). LRU order, recency and ready time are preserved across the
  // re-key.
  // Returns {kept, dropped}.
  struct DeltaInvalidateResult {
    std::size_t kept = 0;
    std::size_t dropped = 0;
  };
  template <typename KeepFn>
  DeltaInvalidateResult delta_invalidate(std::uint64_t graph_key,
                                         std::uint64_t new_version,
                                         KeepFn&& keep) {
    DeltaInvalidateResult r;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.graph_key != graph_key) {
        ++it;
        continue;
      }
      if (keep(static_cast<const CacheKey&>(it->key))) {
        index_.erase(it->key);
        it->key.version = new_version;
        index_[it->key] = it;
        ++r.kept;
        ++it;
      } else {
        bytes_ -= it->bytes;
        index_.erase(it->key);
        it = lru_.erase(it);
        ++r.dropped;
      }
    }
    stats_.delta_kept += r.kept;
    stats_.delta_dropped += r.dropped;
    stats_.invalidations += r.dropped;
    return r;
  }

  void clear() {
    lru_.clear();
    index_.clear();
    bytes_ = 0;
  }

  // Least-recently-used key first (eviction order); for tests.
  std::vector<CacheKey> keys_lru_first() const {
    std::vector<CacheKey> out;
    out.reserve(lru_.size());
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      out.push_back(it->key);
    }
    return out;
  }

 private:
  void evict_one() {
    Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }

  std::size_t capacity_ = 0;
  std::size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<CacheKey, typename std::list<Entry>::iterator,
                     CacheKeyHash>
      index_;
  CacheStats stats_;
};

}  // namespace svc
