// Per-source static BC kernels on the simulated device, shared between the
// static engine (Jia et al. recomputation baseline) and the dynamic
// engines' distance-growing removal fallback.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gpusim/block_context.hpp"
#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn::detail {

/// The CSR arcs of every BFS level. Arcs are grouped by source, so the arcs
/// whose source sits on level L are the rows of L's vertices: the item
/// ranges a level-filtered edge-parallel sweep can use. Filled by a counting
/// sort of vertices by level; the buffers are reused across builds.
struct LevelArcs {
  std::vector<sim::ItemRange> rows;  // one per vertex, by level, then by id
  std::vector<std::size_t> offsets;  // level L: rows[offsets[L], offsets[L+1])

  /// Buckets the first level.size() vertices of `g` by `level`; vertices
  /// at kInfDist are left out.
  void build(const CSRGraph& g, std::span<const Dist> level);
  /// The rows of `level`'s vertices; empty for a level with no vertex.
  std::span<const sim::ItemRange> at(Dist level) const;
};

/// One edge-parallel Brandes iteration from s: fills d/sigma/delta and,
/// when bc_accum is non-empty, atomically adds the dependencies into it.
/// `levels` is caller-provided scratch.
void static_source_edge(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc_accum,
                        LevelArcs& levels);

/// Node-parallel counterpart with caller-provided frontier scratch.
void static_source_node(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc_accum,
                        std::vector<VertexId>& order,
                        std::vector<std::size_t>& level_offsets);

}  // namespace bcdyn::detail
