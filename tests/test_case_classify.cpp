// Update-scenario classification (paper §II.D.1): every distance relation
// maps to the right case, including the disconnected sub-cases.
#include <gtest/gtest.h>

#include "bc/case_classify.hpp"
#include "graph/bfs.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

TEST(CaseClassify, SameLevelIsCase1) {
  const std::vector<Dist> d = {0, 1, 1, 2};
  const auto info = classify_insertion(d, 1, 2);
  EXPECT_EQ(info.update_case, UpdateCase::kNoWork);
  EXPECT_EQ(info.u_high, kNoVertex);
}

TEST(CaseClassify, BothUnreachableIsCase1) {
  const std::vector<Dist> d = {0, kInfDist, kInfDist};
  EXPECT_EQ(classify_insertion(d, 1, 2).update_case, UpdateCase::kNoWork);
}

TEST(CaseClassify, AdjacentLevelsIsCase2WithOrientation) {
  const std::vector<Dist> d = {0, 1, 2};
  const auto a = classify_insertion(d, 1, 2);
  EXPECT_EQ(a.update_case, UpdateCase::kAdjacent);
  EXPECT_EQ(a.u_high, 1);
  EXPECT_EQ(a.u_low, 2);
  // Argument order must not matter.
  const auto b = classify_insertion(d, 2, 1);
  EXPECT_EQ(b.update_case, UpdateCase::kAdjacent);
  EXPECT_EQ(b.u_high, 1);
  EXPECT_EQ(b.u_low, 2);
}

TEST(CaseClassify, FarLevelsIsCase3) {
  const std::vector<Dist> d = {0, 1, 5};
  const auto info = classify_insertion(d, 2, 1);
  EXPECT_EQ(info.update_case, UpdateCase::kFar);
  EXPECT_EQ(info.u_high, 1);
  EXPECT_EQ(info.u_low, 2);
}

TEST(CaseClassify, OneUnreachableIsCase3) {
  const std::vector<Dist> d = {0, 2, kInfDist};
  const auto info = classify_insertion(d, 1, 2);
  EXPECT_EQ(info.update_case, UpdateCase::kFar);
  EXPECT_EQ(info.u_high, 1);
  EXPECT_EQ(info.u_low, 2);
}

TEST(CaseClassify, SourceAsEndpoint) {
  const std::vector<Dist> d = {0, 3};
  const auto info = classify_insertion(d, 0, 1);
  EXPECT_EQ(info.update_case, UpdateCase::kFar);
  EXPECT_EQ(info.u_high, 0);
}

TEST(CaseClassify, ExhaustiveAgainstBfsDistances) {
  // For every absent edge and every source of a random graph, the case
  // derived from BFS distances matches the definition.
  const auto g = test::gnp_graph(25, 0.1, 77);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
        if (g.has_edge(u, v)) continue;
        const auto info = classify_insertion(dist, u, v);
        const Dist du = dist[static_cast<std::size_t>(u)];
        const Dist dv = dist[static_cast<std::size_t>(v)];
        if (du == dv) {
          EXPECT_EQ(info.update_case, UpdateCase::kNoWork);
        } else {
          const Dist lo = std::min(du, dv);
          const Dist hi = std::max(du, dv);
          EXPECT_EQ(info.u_high, du < dv ? u : v);
          EXPECT_EQ(info.update_case, hi - lo == 1 ? UpdateCase::kAdjacent
                                                   : UpdateCase::kFar);
        }
      }
    }
  }
}

TEST(CaseClassify, RemovalAgainstBfsDistances) {
  // For every edge and every source, a removal is Case 1 on one level,
  // Case 2 when u_low keeps its distance (another parent survives) and
  // Case 3 when it grows - judged by BFS on the graph without the edge.
  const auto g = test::gnp_graph(25, 0.15, 78);
  int seen[4] = {};
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (const auto& [u, v] : g.to_coo().edges) {
      const CSRGraph without = g.without_edge(u, v);
      std::size_t scanned = 99;
      const auto info = classify_removal(without, dist, u, v, &scanned);
      ++seen[static_cast<int>(info.update_case)];
      const Dist du = dist[static_cast<std::size_t>(u)];
      const Dist dv = dist[static_cast<std::size_t>(v)];
      if (du == dv) {
        EXPECT_EQ(info.update_case, UpdateCase::kNoWork);
        EXPECT_EQ(scanned, 0u);
        continue;
      }
      EXPECT_EQ(info.u_high, du < dv ? u : v);
      EXPECT_EQ(info.u_low, du < dv ? v : u);
      const auto lo = static_cast<std::size_t>(info.u_low);
      const bool grows = bfs_distances(without, s)[lo] != dist[lo];
      EXPECT_EQ(info.update_case,
                grows ? UpdateCase::kFar : UpdateCase::kAdjacent);
      // The parent search reads neighbors up to the first surviving
      // parent, or all of them when there is none.
      const std::size_t degree = without.neighbors(info.u_low).size();
      if (grows) {
        EXPECT_EQ(scanned, degree);
      } else {
        EXPECT_GE(scanned, 1u);
        EXPECT_LE(scanned, degree);
      }
    }
  }
  EXPECT_GT(seen[1], 0);
  EXPECT_GT(seen[2], 0);
  EXPECT_GT(seen[3], 0);
}

}  // namespace
}  // namespace bcdyn
