// Public API (paper Fig. 10, "Graph API" layer): an abstract graph data type
// with primitives to define/instantiate graphs plus BFS/SSSP entry points
// (api/algorithms.h) that route through the adaptive runtime.
//
// Quickstart:
//
//   adaptive::Graph g = adaptive::Graph::from_edges(4, {{0,1},{1,2},{2,3}});
//   auto bfs = adaptive::bfs(g, /*source=*/0);            // adaptive policy
//   auto fixed = adaptive::bfs(g, 0, adaptive::Policy::fixed("U_T_BM"));
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/graph_stats.h"
#include "graph/transform.h"

namespace adaptive {

using NodeId = graph::NodeId;
inline constexpr std::uint32_t kUnreachable = graph::kInfinity;

class Graph {
 public:
  // ---- construction ----
  static Graph from_csr(graph::Csr csr);
  static Graph from_edges(std::uint32_t num_nodes,
                          std::initializer_list<graph::Edge> edges);
  static Graph from_builder(const graph::GraphBuilder& builder);
  // File loaders (see graph/io.h for the formats).
  static Graph load_dimacs(const std::string& path);
  static Graph load_snap(const std::string& path);
  static Graph load_binary(const std::string& path);

  // ---- inspection ----
  std::uint32_t num_nodes() const { return csr_.num_nodes; }
  std::uint64_t num_edges() const { return csr_.num_edges(); }
  bool is_weighted() const { return csr_.has_weights(); }
  const graph::Csr& csr() const { return csr_; }
  // Computed lazily on first use and cached.
  const graph::GraphStats& stats() const;
  // True iff every arc has its reverse arc stored (the precondition of
  // cc()/mst()); computed lazily and cached alongside stats(). Structural
  // only — weights are not consulted (see is_weight_symmetric).
  bool is_symmetric() const;
  // True iff every arc has its reverse arc stored WITH the same weight;
  // equals is_symmetric() on unweighted graphs. This is the predicate that
  // decides whether csc() may alias csr() on weighted graphs.
  bool is_weight_symmetric() const;
  // The symmetrized CSR (both arcs per edge), computed lazily on first use
  // and cached — repeated cc()/mst() calls pay the O(m) closure once. When
  // the graph is already symmetric this returns csr() itself (no copy).
  const graph::Csr& symmetrized() const;
  // The CSC (in-neighbor) view that the pull/direction-optimizing kernels
  // gather over, computed lazily on first use and cached alongside the
  // symmetrized closure. When the graph is symmetric the CSC equals the CSR
  // and this returns csr() itself (no copy). Invalidated on mutation.
  const graph::Csr& csc() const;
  // Alternate-representation views (DESIGN.md "Representation adaptivity"):
  // the degree-relabelled and binned/padded CSR of csr() — or, when
  // `of_symmetrized` is set (the CC/MST base), of symmetrized() — computed
  // lazily on first use, cached, and invalidated on mutation exactly like
  // the CSC. The RelabeledGraph carries the permutation both ways so
  // engine payloads can be mapped back to original ids.
  const graph::RelabeledGraph& relabelled_view(bool of_symmetrized = false) const;
  const graph::RelabeledGraph& binned_view(bool of_symmetrized = false) const;
  // A deterministic well-connected source (max outdegree).
  NodeId default_source() const { return graph::suggest_source(csr_); }
  // Bumped on every mutation; lets device-resident uploads (Session, the
  // serving layer) detect a stale registration.
  std::uint64_t version() const { return version_; }
  // Stable process-unique identity of this Graph object, used by Session
  // registrations and result-cache keys. A copy receives a fresh uid (it is a
  // distinct registrable object); a move keeps the uid (identity transfers).
  // Replaces address-based keying, which aliased whenever a new graph reused
  // a destroyed graph's storage address.
  std::uint64_t uid() const { return uid_; }

  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  // ---- mutation ----
  // Assigns pseudo-random integer edge weights (needed before sssp()).
  void set_uniform_weights(std::uint32_t lo, std::uint32_t hi,
                           std::uint64_t seed = 2013);

  // Applies a batched edge mutation (graph/delta.h) atomically: the CSR is
  // replaced by the canonical graph::apply_delta result, version() is
  // bumped, and every cached derived structure (stats, symmetry flags,
  // symmetrized closure, CSC) is invalidated. Aborts on an inapplicable
  // delta — validate with graph::delta_error first for untrusted input.
  void apply_delta(const graph::EdgeDelta& delta);

  void save_binary(const std::string& path) const;

 private:
  // The lazily derived structures: stats, symmetry flags, closure, CSC and
  // layout views. Each is built once, under the lock, because recordings on
  // worker threads and the serving thread may ask for one at the same time
  // (DESIGN.md "Query-parallel drains"); every mutation drops them all.
  struct Derived {
    Derived() = default;
    Derived(const Derived& other);
    std::recursive_mutex mu;
    std::optional<graph::GraphStats> stats;
    std::optional<bool> symmetric;
    std::optional<bool> weight_symmetric;
    std::optional<graph::Csr> symmetrized;  // empty when symmetric
    std::optional<graph::Csr> csc;          // empty when symmetric
    // Alternate representations of csr() ([0]) and symmetrized() ([1]).
    std::array<std::optional<graph::RelabeledGraph>, 2> relabelled;
    std::array<std::optional<graph::RelabeledGraph>, 2> binned;
  };

  explicit Graph(graph::Csr csr);
  static std::uint64_t next_uid();
  void drop_derived() { derived_ = std::make_unique<Derived>(); }
  graph::Csr csr_;
  std::uint64_t version_ = 0;
  std::uint64_t uid_ = next_uid();
  std::unique_ptr<Derived> derived_ = std::make_unique<Derived>();
};

}  // namespace adaptive
