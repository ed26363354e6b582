#include "api/graph_api.h"

#include <atomic>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "graph/transform.h"

namespace adaptive {

Graph::Graph(graph::Csr csr) : csr_(std::move(csr)) { csr_.validate(); }

std::uint64_t Graph::next_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Graph::Derived::Derived(const Derived& other) {
  std::lock_guard<std::recursive_mutex> lk(const_cast<Derived&>(other).mu);
  stats = other.stats;
  symmetric = other.symmetric;
  weight_symmetric = other.weight_symmetric;
  symmetrized = other.symmetrized;
  csc = other.csc;
  relabelled = other.relabelled;
  binned = other.binned;
}

Graph::Graph(const Graph& other)
    : csr_(other.csr_),
      version_(other.version_),
      derived_(std::make_unique<Derived>(*other.derived_)) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  csr_ = other.csr_;
  version_ = other.version_;
  derived_ = std::make_unique<Derived>(*other.derived_);
  // Assignment replaces this object's contents wholesale: it is a new
  // registrable identity, exactly like a copy construction.
  uid_ = next_uid();
  return *this;
}

// A moved-from graph keeps a (fresh) Derived, so it stays usable.
Graph::Graph(Graph&& other) noexcept
    : csr_(std::move(other.csr_)),
      version_(other.version_),
      uid_(other.uid_),
      derived_(std::exchange(other.derived_, std::make_unique<Derived>())) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  csr_ = std::move(other.csr_);
  version_ = other.version_;
  uid_ = other.uid_;
  derived_.swap(other.derived_);
  other.drop_derived();
  return *this;
}

Graph Graph::from_csr(graph::Csr csr) { return Graph(std::move(csr)); }

Graph Graph::from_edges(std::uint32_t num_nodes,
                        std::initializer_list<graph::Edge> edges) {
  const std::vector<graph::Edge> list(edges);
  return Graph(graph::csr_from_edges(num_nodes, list));
}

Graph Graph::from_builder(const graph::GraphBuilder& builder) {
  return Graph(builder.build());
}

Graph Graph::load_dimacs(const std::string& path) {
  return Graph(graph::read_dimacs(path));
}

Graph Graph::load_snap(const std::string& path) {
  return Graph(graph::read_snap_edgelist(path));
}

Graph Graph::load_binary(const std::string& path) {
  return Graph(graph::read_binary(path));
}

const graph::GraphStats& Graph::stats() const {
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  auto& slot = derived_->stats;
  if (!slot) slot = graph::GraphStats::compute(csr_);
  return *slot;
}

bool Graph::is_symmetric() const {
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  auto& slot = derived_->symmetric;
  if (!slot) slot = graph::is_symmetric(csr_);
  return *slot;
}

bool Graph::is_weight_symmetric() const {
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  auto& slot = derived_->weight_symmetric;
  if (!slot) {
    slot = csr_.has_weights() ? graph::is_weight_symmetric(csr_) : is_symmetric();
  }
  return *slot;
}

const graph::Csr& Graph::symmetrized() const {
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  if (is_symmetric()) return csr_;
  auto& slot = derived_->symmetrized;
  if (!slot) slot = graph::symmetrize(csr_);
  return *slot;
}

const graph::Csr& Graph::csc() const {
  // A structurally symmetric graph is its own transpose only when the
  // weights agree arc-for-arc too: is_symmetric() ignores weights, and
  // transposing a weight-asymmetric graph permutes them. The explicit
  // weighted predicate makes the aliasing decision exact instead of
  // conservatively copying every weighted graph.
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  if (is_weight_symmetric()) return csr_;
  auto& slot = derived_->csc;
  if (!slot) slot = graph::build_csc(csr_);
  return *slot;
}

const graph::RelabeledGraph& Graph::relabelled_view(bool of_symmetrized) const {
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  auto& slot = derived_->relabelled[of_symmetrized ? 1 : 0];
  if (!slot) {
    slot = graph::relabel_by_degree(of_symmetrized ? symmetrized() : csr_);
  }
  return *slot;
}

const graph::RelabeledGraph& Graph::binned_view(bool of_symmetrized) const {
  std::lock_guard<std::recursive_mutex> lk(derived_->mu);
  auto& slot = derived_->binned[of_symmetrized ? 1 : 0];
  if (!slot) slot = graph::build_binned(of_symmetrized ? symmetrized() : csr_);
  return *slot;
}

void Graph::set_uniform_weights(std::uint32_t lo, std::uint32_t hi,
                                std::uint64_t seed) {
  graph::assign_uniform_weights(csr_, lo, hi, seed);
  ++version_;
  drop_derived();
}

void Graph::apply_delta(const graph::EdgeDelta& delta) {
  csr_ = graph::apply_delta(csr_, delta);
  ++version_;
  drop_derived();
}

void Graph::save_binary(const std::string& path) const {
  graph::write_binary(csr_, path);
}

}  // namespace adaptive
