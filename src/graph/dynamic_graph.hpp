// Streaming-graph substrate (STINGER-lite).
//
// The paper (§IV) excludes graph-structure update cost from its timings and
// cites STINGER [23] for low amortized-cost dynamic adjacency storage. This
// is a compact single-node take on the same idea: per-vertex adjacency is a
// chain of fixed-size edge blocks allocated from a growing arena, giving
// O(1) amortized insertion, cache-friendly traversal, and stable iteration
// order. Removal swaps with the last slot of the chain (O(degree) search).
//
// DynamicBc does not use it: the analytic patches its CSRGraph in place
// (CSRGraph::insert_edge / remove_edge). Its remaining users are the
// repository benchmark's reference mirror (perfbench/), the graph
// microbenchmarks (bench/micro_graph.cpp), and the tests, where its
// snapshot is the reference the patched CSR is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn {

class DynamicGraph {
 public:
  /// Number of neighbor slots per edge block. Sized so one block fills a
  /// cache line pair (32 * 4B = 128B).
  static constexpr int kBlockSlots = 32;

  explicit DynamicGraph(VertexId num_vertices);

  /// Builds from an existing static graph.
  static DynamicGraph from_csr(const CSRGraph& g);

  VertexId num_vertices() const { return static_cast<VertexId>(heads_.size()); }
  EdgeId num_edges() const { return num_edges_; }
  EdgeId num_arcs() const { return num_edges_ * 2; }

  VertexId degree(VertexId v) const { return degrees_[static_cast<std::size_t>(v)]; }

  /// Inserts undirected edge {u, v}. Returns false for self loops,
  /// out-of-range endpoints, or already-present edges.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes undirected edge {u, v}; returns false if absent.
  bool remove_edge(VertexId u, VertexId v);

  bool has_edge(VertexId u, VertexId v) const;

  /// Invokes fn(w) for every neighbor w of v.
  template <typename Fn>
  void for_each_neighbor(VertexId v, Fn&& fn) const {
    std::int32_t b = heads_[static_cast<std::size_t>(v)];
    while (b >= 0) {
      const Block& blk = blocks_[static_cast<std::size_t>(b)];
      for (int i = 0; i < blk.count; ++i) fn(blk.slots[i]);
      b = blk.next;
    }
  }

  /// Invokes fn(u, w) for every directed arc.
  template <typename Fn>
  void for_each_arc(Fn&& fn) const {
    for (VertexId v = 0; v < num_vertices(); ++v) {
      for_each_neighbor(v, [&](VertexId w) { fn(v, w); });
    }
  }

  /// CSR snapshot, byte-identical to CSRGraph::from_coo of the edge set:
  /// each row is copied straight from its block chain and sorted on its
  /// own, O(n + m log d_max).
  CSRGraph snapshot_csr() const;

  /// Internal-consistency check (block counts vs degrees vs edge set);
  /// used by tests and debug assertions.
  bool check_invariants() const;

 private:
  struct Block {
    VertexId slots[kBlockSlots];
    std::int32_t next = -1;  // index into blocks_, -1 = end of chain
    std::int32_t count = 0;
  };

  static std::uint64_t key(VertexId u, VertexId v);
  void push_neighbor(VertexId v, VertexId w);
  bool erase_neighbor(VertexId v, VertexId w);

  std::vector<std::int32_t> heads_;  // first block per vertex, -1 = none
  std::vector<std::int32_t> tails_;  // last block per vertex (insert point)
  std::vector<VertexId> degrees_;
  std::vector<Block> blocks_;        // arena
  std::unordered_set<std::uint64_t> edge_set_;
  EdgeId num_edges_ = 0;
};

}  // namespace bcdyn
