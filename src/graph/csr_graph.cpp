#include "graph/csr_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bcdyn {

namespace {

using Arcs = std::vector<VertexId>;

/// Inserts `a` before position i and `b` before position j (i <= j, both
/// positions in the original array), shifting the tail with two memmoves.
void splice_in(Arcs& arcs, std::size_t i, std::size_t j, VertexId a,
               VertexId b) {
  const std::size_t old_size = arcs.size();
  arcs.resize(old_size + 2);
  VertexId* p = arcs.data();
  std::move_backward(p + j, p + old_size, p + old_size + 2);
  std::move_backward(p + i, p + j, p + j + 1);
  p[i] = a;
  p[j + 1] = b;
}

/// splice_in into a fresh, exactly sized copy of `arcs`, in one pass.
Arcs spliced_in(const Arcs& arcs, std::size_t i, std::size_t j, VertexId a,
                VertexId b) {
  const VertexId* p = arcs.data();
  Arcs out;
  out.reserve(arcs.size() + 2);
  out.insert(out.end(), p, p + i);
  out.push_back(a);
  out.insert(out.end(), p + i, p + j);
  out.push_back(b);
  out.insert(out.end(), p + j, p + arcs.size());
  return out;
}

/// Erases positions i and j (i < j).
void splice_out(Arcs& arcs, std::size_t i, std::size_t j) {
  VertexId* p = arcs.data();
  std::move(p + i + 1, p + j, p + i);
  std::move(p + j + 1, p + arcs.size(), p + j - 1);
  arcs.resize(arcs.size() - 2);
}

/// splice_out into a fresh, exactly sized copy of `arcs`, in one pass.
Arcs spliced_out(const Arcs& arcs, std::size_t i, std::size_t j) {
  const VertexId* p = arcs.data();
  Arcs out;
  out.reserve(arcs.size() - 2);
  out.insert(out.end(), p, p + i);
  out.insert(out.end(), p + i + 1, p + j);
  out.insert(out.end(), p + j + 1, p + arcs.size());
  return out;
}

}  // namespace

CSRGraph CSRGraph::from_coo(COOGraph coo) {
  if (!coo.endpoints_valid()) {
    throw std::invalid_argument("COOGraph has endpoints outside [0, n)");
  }
  coo.canonicalize();

  const auto n = static_cast<std::size_t>(coo.num_vertices);
  std::vector<EdgeId> counts(n, 0);
  for (const auto& [u, v] : coo.edges) {
    ++counts[static_cast<std::size_t>(u)];
    ++counts[static_cast<std::size_t>(v)];
  }
  std::vector<EdgeId> row_offsets(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_offsets[i + 1] = row_offsets[i] + counts[i];
  }

  std::vector<VertexId> col_indices(coo.edges.size() * 2);
  std::vector<EdgeId> cursor(row_offsets.begin(), row_offsets.end() - 1);
  for (const auto& [u, v] : coo.edges) {
    col_indices[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    col_indices[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  return from_rows(coo.num_vertices, std::move(row_offsets),
                   std::move(col_indices));
}

CSRGraph CSRGraph::from_rows(VertexId num_vertices,
                             std::vector<EdgeId> row_offsets,
                             std::vector<VertexId> col_indices) {
  CSRGraph g;
  g.num_vertices_ = num_vertices;
  g.row_offsets_ = std::move(row_offsets);
  g.col_indices_ = std::move(col_indices);
  g.arc_src_.resize(g.col_indices_.size());
  const auto n = static_cast<std::size_t>(num_vertices);
  for (std::size_t v = 0; v < n; ++v) {
    const auto begin = g.row_offsets_[v];
    const auto end = g.row_offsets_[v + 1];
    std::sort(g.col_indices_.begin() + begin, g.col_indices_.begin() + end);
    std::fill(g.arc_src_.begin() + begin, g.arc_src_.begin() + end,
              static_cast<VertexId>(v));
  }
  return g;
}

bool CSRGraph::has_edge(VertexId u, VertexId v) const {
  assert(u >= 0 && u < num_vertices_ && v >= 0 && v < num_vertices_);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

CSRGraph::ArcSlots CSRGraph::locate(VertexId u, VertexId v) const {
  ArcSlots s;
  s.lo = std::min(u, v);
  s.hi = std::max(u, v);
  const auto slot = [&](VertexId row, VertexId w) {
    const auto nbrs = neighbors(row);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
    return static_cast<std::size_t>(row_offsets_[row]) +
           static_cast<std::size_t>(it - nbrs.begin());
  };
  s.in_lo = slot(s.lo, s.hi);
  s.in_hi = slot(s.hi, s.lo);
  s.present = s.in_lo < static_cast<std::size_t>(row_offsets_[s.lo + 1]) &&
              col_indices_[s.in_lo] == s.hi;
  return s;
}

void CSRGraph::shift_offsets(VertexId lo, VertexId hi, EdgeId by) {
  const auto first = row_offsets_.begin() + lo + 1;
  const auto past_hi = row_offsets_.begin() + hi + 1;
  for (auto it = first; it != past_hi; ++it) *it += by;
  for (auto it = past_hi; it != row_offsets_.end(); ++it) *it += 2 * by;
}

bool CSRGraph::insert_edge(VertexId u, VertexId v) {
  if (u == v || !in_range(u) || !in_range(v)) return false;
  const ArcSlots s = locate(u, v);
  if (s.present) return false;
  splice_in(col_indices_, s.in_lo, s.in_hi, s.hi, s.lo);
  splice_in(arc_src_, s.in_lo, s.in_hi, s.lo, s.hi);
  shift_offsets(s.lo, s.hi, 1);
  return true;
}

bool CSRGraph::remove_edge(VertexId u, VertexId v) {
  if (u == v || !in_range(u) || !in_range(v)) return false;
  const ArcSlots s = locate(u, v);
  if (!s.present) return false;
  splice_out(col_indices_, s.in_lo, s.in_hi);
  splice_out(arc_src_, s.in_lo, s.in_hi);
  shift_offsets(s.lo, s.hi, -1);
  return true;
}

CSRGraph CSRGraph::with_edge(VertexId u, VertexId v) const {
  if (!in_range(u) || !in_range(v)) {
    throw std::invalid_argument("CSRGraph::with_edge: endpoint outside [0, n)");
  }
  if (u == v) return *this;
  const ArcSlots s = locate(u, v);
  if (s.present) return *this;
  CSRGraph g;
  g.num_vertices_ = num_vertices_;
  g.row_offsets_ = row_offsets_;
  g.shift_offsets(s.lo, s.hi, 1);
  g.col_indices_ = spliced_in(col_indices_, s.in_lo, s.in_hi, s.hi, s.lo);
  g.arc_src_ = spliced_in(arc_src_, s.in_lo, s.in_hi, s.lo, s.hi);
  return g;
}

CSRGraph CSRGraph::without_edge(VertexId u, VertexId v) const {
  if (u == v || !in_range(u) || !in_range(v)) return *this;
  const ArcSlots s = locate(u, v);
  if (!s.present) return *this;
  CSRGraph g;
  g.num_vertices_ = num_vertices_;
  g.row_offsets_ = row_offsets_;
  g.shift_offsets(s.lo, s.hi, -1);
  g.col_indices_ = spliced_out(col_indices_, s.in_lo, s.in_hi);
  g.arc_src_ = spliced_out(arc_src_, s.in_lo, s.in_hi);
  return g;
}

COOGraph CSRGraph::to_coo() const {
  COOGraph coo;
  coo.num_vertices = num_vertices_;
  coo.edges.reserve(static_cast<std::size_t>(num_edges()));
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId w : neighbors(v)) {
      if (v < w) coo.add_edge(v, w);
    }
  }
  return coo;
}

}  // namespace bcdyn
