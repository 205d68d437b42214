// Classification of an edge write per source (paper §II.D.1).
//
// For source s and inserted edge {u, v}:
//   Case 1: |d_s(u) - d_s(v)| = 0  - no work (same level, or neither
//           endpoint reachable from s);
//   Case 2: |d_s(u) - d_s(v)| = 1  - sigma/delta may change, distances don't;
//   Case 3: |d_s(u) - d_s(v)| > 1  - distances change (includes the
//           "one endpoint unreachable" component-attach sub-case).
//
// A removed edge existed, so its endpoints sit at most one level apart
// (DESIGN.md §9): Case 1 is same level, Case 2 is adjacent levels with
// u_low keeping another parent (distances don't change), and Case 3 is
// u_low losing its only parent (its distance grows, possibly to infinity).
#pragma once

#include <cstddef>
#include <span>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn {

enum class UpdateCase : int {
  kNoWork = 1,    // Case 1
  kAdjacent = 2,  // Case 2
  kFar = 3,       // Case 3
};

struct CaseInfo {
  UpdateCase update_case = UpdateCase::kNoWork;
  VertexId u_high = kNoVertex;  // endpoint closer to the source
  VertexId u_low = kNoVertex;   // endpoint farther from the source
};

/// Classifies the insertion of edge {u, v} for the source whose distance
/// row is `dist` (distances *before* the insertion).
CaseInfo classify_insertion(std::span<const Dist> dist, VertexId u, VertexId v);

/// Classifies the removal of edge {u, v} for the source whose distance row
/// is `dist` (distances *before* the removal); `g` no longer holds the
/// edge. `scanned`, when given, receives how many of u_low's neighbors the
/// surviving-parent search read (0 for Case 1), for callers that charge a
/// cost model.
CaseInfo classify_removal(const CSRGraph& g, std::span<const Dist> dist,
                          VertexId u, VertexId v,
                          std::size_t* scanned = nullptr);

}  // namespace bcdyn
