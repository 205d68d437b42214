#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <utility>

namespace bcdyn {

DynamicGraph::DynamicGraph(VertexId num_vertices)
    : heads_(static_cast<std::size_t>(num_vertices), -1),
      tails_(static_cast<std::size_t>(num_vertices), -1),
      degrees_(static_cast<std::size_t>(num_vertices), 0) {}

DynamicGraph DynamicGraph::from_csr(const CSRGraph& g) {
  DynamicGraph dyn(g.num_vertices());
  dyn.blocks_.reserve(static_cast<std::size_t>(g.num_arcs()) / kBlockSlots +
                      static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w) dyn.insert_edge(v, w);
    }
  }
  return dyn;
}

std::uint64_t DynamicGraph::key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

void DynamicGraph::push_neighbor(VertexId v, VertexId w) {
  const auto vi = static_cast<std::size_t>(v);
  std::int32_t tail = tails_[vi];
  if (tail < 0 || blocks_[static_cast<std::size_t>(tail)].count == kBlockSlots) {
    const auto fresh = static_cast<std::int32_t>(blocks_.size());
    blocks_.emplace_back();
    if (tail < 0) {
      heads_[vi] = fresh;
    } else {
      blocks_[static_cast<std::size_t>(tail)].next = fresh;
    }
    tails_[vi] = fresh;
    tail = fresh;
  }
  Block& blk = blocks_[static_cast<std::size_t>(tail)];
  blk.slots[blk.count++] = w;
  ++degrees_[vi];
}

bool DynamicGraph::erase_neighbor(VertexId v, VertexId w) {
  const auto vi = static_cast<std::size_t>(v);
  // Find w, then overwrite it with the last slot of the chain.
  std::int32_t b = heads_[vi];
  Block* found_block = nullptr;
  int found_slot = -1;
  while (b >= 0) {
    Block& blk = blocks_[static_cast<std::size_t>(b)];
    for (int i = 0; i < blk.count; ++i) {
      if (blk.slots[i] == w) {
        found_block = &blk;
        found_slot = i;
        break;
      }
    }
    if (found_block) break;
    b = blk.next;
  }
  if (!found_block) return false;

  Block& tail = blocks_[static_cast<std::size_t>(tails_[vi])];
  found_block->slots[found_slot] = tail.slots[tail.count - 1];
  --tail.count;
  --degrees_[vi];
  if (tail.count == 0) {
    // Unlink the empty tail block (the arena slot itself is not reclaimed;
    // net block leakage is bounded by the number of removals).
    if (heads_[vi] == tails_[vi]) {
      heads_[vi] = tails_[vi] = -1;
    } else {
      std::int32_t cur = heads_[vi];
      while (blocks_[static_cast<std::size_t>(cur)].next != tails_[vi]) {
        cur = blocks_[static_cast<std::size_t>(cur)].next;
      }
      blocks_[static_cast<std::size_t>(cur)].next = -1;
      tails_[vi] = cur;
    }
  }
  return true;
}

bool DynamicGraph::insert_edge(VertexId u, VertexId v) {
  if (u == v) return false;
  if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices()) return false;
  if (!edge_set_.insert(key(u, v)).second) return false;
  push_neighbor(u, v);
  push_neighbor(v, u);
  ++num_edges_;
  return true;
}

bool DynamicGraph::remove_edge(VertexId u, VertexId v) {
  if (u == v) return false;
  if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices()) return false;
  if (edge_set_.erase(key(u, v)) == 0) return false;
  const bool a = erase_neighbor(u, v);
  const bool b = erase_neighbor(v, u);
  --num_edges_;
  return a && b;
}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
  if (u == v) return false;
  return edge_set_.count(key(u, v)) > 0;
}

CSRGraph DynamicGraph::snapshot_csr() const {
  const auto n = static_cast<std::size_t>(num_vertices());
  std::vector<EdgeId> row_offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    row_offsets[v + 1] = row_offsets[v] + degrees_[v];
  }
  std::vector<VertexId> col_indices;
  col_indices.reserve(static_cast<std::size_t>(num_arcs()));
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for_each_neighbor(v, [&](VertexId w) { col_indices.push_back(w); });
  }
  return CSRGraph::from_rows(num_vertices(), std::move(row_offsets),
                             std::move(col_indices));
}

bool DynamicGraph::check_invariants() const {
  EdgeId arc_count = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    VertexId chain = 0;
    for_each_neighbor(v, [&](VertexId w) {
      ++chain;
      ++arc_count;
      if (!has_edge(v, w)) chain = -1;  // neighbor missing from edge set
    });
    if (chain != degree(v)) return false;
  }
  return arc_count == num_arcs() &&
         static_cast<EdgeId>(edge_set_.size()) == num_edges_;
}

}  // namespace bcdyn
