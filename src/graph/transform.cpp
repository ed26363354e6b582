#include "graph/transform.h"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

namespace graph {

namespace {

// Every arc u->v is matched by an arc v->u (with the same weight when
// `by_weight`), multiplicity counted, iff each node's out-arcs and in-arcs
// form the same multiset. The transpose lists the in-arcs per row, so the
// check is one transpose plus a sort of each row: O(m log d). Graph::csc()
// runs it on the first query that may pull after every mutation, so it must
// stay cheap.
bool arcs_match_reverse(const Csr& g, bool by_weight) {
  const Csr t = transpose(g);
  std::vector<std::pair<NodeId, std::uint32_t>> out;
  std::vector<std::pair<NodeId, std::uint32_t>> in;
  const auto sorted_row = [&](const Csr& c, std::uint32_t v, auto& row) {
    row.clear();
    for (std::uint32_t e = c.row_offsets[v]; e < c.row_offsets[v + 1]; ++e) {
      row.emplace_back(c.col_indices[e], by_weight ? c.weights[e] : 0);
    }
    std::sort(row.begin(), row.end());
  };
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    if (g.degree(v) != t.degree(v)) return false;
    sorted_row(g, v, out);
    sorted_row(t, v, in);
    if (out != in) return false;
  }
  return true;
}

}  // namespace

bool is_symmetric(const Csr& g) { return arcs_match_reverse(g, false); }

bool is_weight_symmetric(const Csr& g) {
  return arcs_match_reverse(g, g.has_weights());
}

RelabeledGraph relabel(const Csr& g, std::span<const NodeId> new_id) {
  AGG_CHECK(new_id.size() == g.num_nodes);
  RelabeledGraph out;
  out.new_id.assign(new_id.begin(), new_id.end());
  out.old_id.assign(g.num_nodes, 0);
  for (std::uint32_t old = 0; old < g.num_nodes; ++old) {
    AGG_CHECK(new_id[old] < g.num_nodes);
    out.old_id[new_id[old]] = old;
  }

  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  std::vector<std::uint32_t> weights;
  if (g.has_weights()) weights.reserve(g.num_edges());
  for (std::uint32_t nv = 0; nv < g.num_nodes; ++nv) {
    const std::uint32_t old = out.old_id[nv];
    const auto nbrs = g.neighbors(old);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      edges.push_back({nv, new_id[nbrs[i]]});
      if (g.has_weights()) weights.push_back(g.weights[g.row_offsets[old] + i]);
    }
  }
  out.csr = csr_from_edges(g.num_nodes, edges, weights);
  return out;
}

RelabeledGraph relabel_by_degree(const Csr& g, bool descending) {
  std::vector<NodeId> order(g.num_nodes);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return descending ? g.degree(a) > g.degree(b) : g.degree(a) < g.degree(b);
  });
  std::vector<NodeId> new_id(g.num_nodes);
  for (std::uint32_t pos = 0; pos < g.num_nodes; ++pos) new_id[order[pos]] = pos;
  return relabel(g, new_id);
}

RelabeledGraph build_binned(const Csr& g, std::uint32_t bin_align) {
  AGG_CHECK(bin_align > 0);
  RelabeledGraph out;
  const std::uint32_t n = g.num_nodes;
  out.new_id.assign(n, 0);
  // Bucket rows by the bit width of their outdegree (degree 0 -> bucket 0,
  // 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...): within a bucket the max/min degree
  // ratio is < 2, which bounds per-warp lane imbalance once buckets are
  // warp-aligned.
  std::array<std::vector<NodeId>, 33> buckets;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t d = g.degree(v);
    std::uint32_t b = 0;
    while (d != 0) {
      ++b;
      d >>= 1;
    }
    buckets[b].push_back(v);
  }
  std::vector<NodeId> slot_to_old;
  slot_to_old.reserve(n + 33 * bin_align);
  for (int b = 32; b >= 0; --b) {
    if (buckets[b].empty()) continue;
    for (const NodeId v : buckets[b]) {
      out.new_id[v] = static_cast<NodeId>(slot_to_old.size());
      slot_to_old.push_back(v);
    }
    while (slot_to_old.size() % bin_align != 0) slot_to_old.push_back(kInfinity);
  }
  const auto num_slots = static_cast<std::uint32_t>(slot_to_old.size());
  out.old_id = std::move(slot_to_old);

  Csr& c = out.csr;
  c.num_nodes = num_slots;
  c.row_offsets.assign(num_slots + 1, 0);
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    const NodeId old = out.old_id[s];
    c.row_offsets[s + 1] =
        c.row_offsets[s] + (old == kInfinity ? 0 : g.degree(old));
  }
  c.col_indices.resize(g.num_edges());
  if (g.has_weights()) c.weights.resize(g.num_edges());
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    const NodeId old = out.old_id[s];
    if (old == kInfinity) continue;
    const auto nbrs = g.neighbors(old);
    std::uint32_t at = c.row_offsets[s];
    for (std::size_t i = 0; i < nbrs.size(); ++i, ++at) {
      c.col_indices[at] = out.new_id[nbrs[i]];
      if (g.has_weights()) c.weights[at] = g.weights[g.row_offsets[old] + i];
    }
  }
  c.validate();
  return out;
}

RelabeledGraph induced_subgraph(const Csr& g, std::span<const NodeId> nodes) {
  RelabeledGraph out;
  out.old_id.assign(nodes.begin(), nodes.end());
  std::vector<NodeId> new_id(g.num_nodes, kInfinity);
  for (std::uint32_t pos = 0; pos < nodes.size(); ++pos) {
    AGG_CHECK(nodes[pos] < g.num_nodes);
    AGG_CHECK_MSG(new_id[nodes[pos]] == kInfinity, "duplicate node in selection");
    new_id[nodes[pos]] = pos;
  }
  out.new_id = new_id;

  std::vector<Edge> edges;
  std::vector<std::uint32_t> weights;
  for (std::uint32_t pos = 0; pos < nodes.size(); ++pos) {
    const NodeId old = nodes[pos];
    const auto nbrs = g.neighbors(old);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (new_id[nbrs[i]] == kInfinity) continue;
      edges.push_back({pos, new_id[nbrs[i]]});
      if (g.has_weights()) weights.push_back(g.weights[g.row_offsets[old] + i]);
    }
  }
  out.csr = csr_from_edges(static_cast<std::uint32_t>(nodes.size()), edges, weights);
  return out;
}

Csr dedup_edges(const Csr& g) {
  std::vector<Edge> edges;
  std::vector<std::uint32_t> weights;
  std::map<NodeId, std::uint32_t> best;  // per source: target -> min weight
  for (std::uint32_t v = 0; v < g.num_nodes; ++v) {
    best.clear();
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t w =
          g.has_weights() ? g.weights[g.row_offsets[v] + i] : 1;
      const auto [it, inserted] = best.emplace(nbrs[i], w);
      if (!inserted) it->second = std::min(it->second, w);
    }
    for (const auto& [t, w] : best) {
      edges.push_back({v, t});
      if (g.has_weights()) weights.push_back(w);
    }
  }
  return csr_from_edges(g.num_nodes, edges,
                        g.has_weights() ? std::span<const std::uint32_t>(weights)
                                        : std::span<const std::uint32_t>{});
}

Csr build_csc(const Csr& g) { return transpose(g); }

}  // namespace graph
