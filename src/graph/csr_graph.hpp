// Compressed-sparse-row graph, patched in place on every edge write.
//
// Undirected graphs are stored with both arc directions so that
// neighbors(v) is a contiguous span. The arcs also form the "edge-parallel
// view": arc a goes arc_src[a] -> arc_dst[a] for every directed arc, which
// is exactly the iteration space of the paper's edge-parallel kernels;
// arc_dst is col_indices itself.
//
// The layout is always compact (no slack) with every row sorted, so a
// graph reached by any sequence of insert_edge / remove_edge calls is
// byte-identical to from_coo of its edge set. That invariant pins the arc
// order the edge-parallel kernels iterate, and with it the float fold
// order and every modeled count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "util/types.hpp"

namespace bcdyn {

class DynamicGraph;

class CSRGraph {
 public:
  CSRGraph() = default;

  /// Builds from an undirected edge list. The input is canonicalized
  /// (self loops and duplicates dropped).
  static CSRGraph from_coo(COOGraph coo);

  VertexId num_vertices() const { return num_vertices_; }

  /// Number of undirected edges (m). The arc list has 2m entries.
  EdgeId num_edges() const { return num_arcs() / 2; }

  EdgeId num_arcs() const { return static_cast<EdgeId>(col_indices_.size()); }

  VertexId degree(VertexId v) const {
    return static_cast<VertexId>(row_offsets_[v + 1] - row_offsets_[v]);
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {col_indices_.data() + row_offsets_[v],
            col_indices_.data() + row_offsets_[v + 1]};
  }

  /// Directed-arc view: arc a goes arc_src()[a] -> arc_dst()[a].
  std::span<const VertexId> arc_src() const { return arc_src_; }
  std::span<const VertexId> arc_dst() const { return col_indices_; }

  std::span<const EdgeId> row_offsets() const { return row_offsets_; }

  bool has_edge(VertexId u, VertexId v) const;

  /// Inserts undirected edge {u, v} in place: both arcs are spliced into
  /// their sorted rows and the later row offsets shift. O(n + m) of
  /// memmove. Returns false (graph unchanged) for self loops, out-of-range
  /// endpoints, and edges already present.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes undirected edge {u, v} in place, O(n + m). Returns false
  /// (graph unchanged) for self loops, out-of-range endpoints, and absent
  /// edges.
  bool remove_edge(VertexId u, VertexId v);

  /// A copy with edge {u, v} added, built in one copy-and-splice pass into
  /// exactly sized arrays; O(n + m). Self loops and present edges yield an
  /// unchanged copy; out-of-range endpoints throw std::invalid_argument.
  CSRGraph with_edge(VertexId u, VertexId v) const;

  /// A copy with edge {u, v} removed, O(n + m); an unchanged copy when the
  /// edge is absent.
  CSRGraph without_edge(VertexId u, VertexId v) const;

  /// Convert back to a canonical undirected edge list.
  COOGraph to_coo() const;

  /// Layout equality: same vertex count, row offsets and arcs.
  bool operator==(const CSRGraph&) const = default;

 private:
  friend class DynamicGraph;

  /// Arc positions of undirected edge {lo, hi} (lo < hi): where hi sits,
  /// or would be inserted, in row lo, and likewise lo in row hi.
  struct ArcSlots {
    VertexId lo = 0;
    VertexId hi = 0;
    std::size_t in_lo = 0;
    std::size_t in_hi = 0;
    bool present = false;
  };

  /// Finishes a graph whose rows are filled but unsorted: sorts each row
  /// and derives arc_src_. Shared by from_coo and DynamicGraph's snapshot.
  static CSRGraph from_rows(VertexId num_vertices,
                            std::vector<EdgeId> row_offsets,
                            std::vector<VertexId> col_indices);

  bool in_range(VertexId v) const { return v >= 0 && v < num_vertices_; }
  ArcSlots locate(VertexId u, VertexId v) const;
  /// Adds `by` to the offsets of rows lo+1..hi and 2*by past row hi.
  void shift_offsets(VertexId lo, VertexId hi, EdgeId by);

  VertexId num_vertices_ = 0;
  std::vector<EdgeId> row_offsets_;    // size n+1
  std::vector<VertexId> col_indices_;  // size 2m, sorted per row; arc_dst
  std::vector<VertexId> arc_src_;      // size 2m
};

}  // namespace bcdyn
