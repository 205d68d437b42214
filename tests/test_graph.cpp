// Graph substrate: COO canonicalization, CSR construction/queries and
// in-place edits, the incremental builder, BFS, and connected components.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>
#include <utility>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/connected_components.hpp"
#include "graph/csr_graph.hpp"
#include "graph/degree_stats.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

TEST(COOGraph, CanonicalizeDropsLoopsAndDuplicates) {
  COOGraph coo;
  coo.num_vertices = 5;
  coo.add_edge(1, 2);
  coo.add_edge(2, 1);  // duplicate, reversed
  coo.add_edge(3, 3);  // self loop
  coo.add_edge(0, 4);
  coo.add_edge(1, 2);  // duplicate
  EXPECT_EQ(coo.canonicalize(), 3u);
  EXPECT_EQ(coo.num_edges(), 2u);
  for (const auto& [u, v] : coo.edges) EXPECT_LT(u, v);
}

TEST(COOGraph, EndpointValidation) {
  COOGraph coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 2);
  EXPECT_TRUE(coo.endpoints_valid());
  coo.add_edge(0, 3);
  EXPECT_FALSE(coo.endpoints_valid());
  EXPECT_THROW(CSRGraph::from_coo(coo), std::invalid_argument);
}

TEST(CSRGraph, BasicStructure) {
  COOGraph coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 1);
  coo.add_edge(1, 2);
  coo.add_edge(0, 2);
  const auto g = CSRGraph::from_coo(std::move(coo));
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  // Neighbor lists are sorted.
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1);
  EXPECT_EQ(n0[1], 2);
}

TEST(CSRGraph, ArcListCoversBothDirections) {
  const auto g = test::path_graph(4);
  EXPECT_EQ(g.arc_src().size(), 6u);
  std::size_t forward = 0;
  for (std::size_t a = 0; a < g.arc_src().size(); ++a) {
    const VertexId u = g.arc_src()[a];
    const VertexId w = g.arc_dst()[a];
    EXPECT_TRUE(g.has_edge(u, w));
    if (u < w) ++forward;
  }
  EXPECT_EQ(forward, 3u);
}

TEST(CSRGraph, WithAndWithoutEdgeRoundTrip) {
  const auto g = test::cycle_graph(6);
  const auto g2 = g.with_edge(0, 3);
  EXPECT_TRUE(g2.has_edge(0, 3));
  EXPECT_EQ(g2.num_edges(), g.num_edges() + 1);
  const auto g3 = g2.without_edge(0, 3);
  EXPECT_FALSE(g3.has_edge(0, 3));
  EXPECT_EQ(g3.num_edges(), g.num_edges());
  // to_coo round trip preserves the edge set.
  const auto coo = g3.to_coo();
  const auto g4 = CSRGraph::from_coo(coo);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(g4.degree(v), g.degree(v));
  }
}

/// The graph from_coo builds for `edges` over n vertices: the layout every
/// in-place edit must reproduce byte for byte.
CSRGraph rebuilt(VertexId n, const std::set<std::pair<VertexId, VertexId>>& edges) {
  COOGraph coo;
  coo.num_vertices = n;
  for (const auto& [u, v] : edges) coo.add_edge(u, v);
  return CSRGraph::from_coo(std::move(coo));
}

void expect_rows_sorted(const CSRGraph& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                 std::greater_equal<>()),
              nbrs.end())
        << "row " << v << " is not strictly increasing";
    const auto row = static_cast<std::size_t>(g.row_offsets()[v]);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(g.arc_src()[row + i], v);
      EXPECT_EQ(g.arc_dst()[row + i], nbrs[i]);
    }
  }
}

TEST(CSRGraph, EditsRejectInvalidWritesAndLeaveTheGraphUnchanged) {
  const auto original = test::cycle_graph(6);
  auto g = original;
  EXPECT_FALSE(g.insert_edge(2, 2));   // self loop
  EXPECT_FALSE(g.insert_edge(0, 6));   // out of range
  EXPECT_FALSE(g.insert_edge(-1, 3));  // out of range
  EXPECT_FALSE(g.insert_edge(0, 1));   // present
  EXPECT_FALSE(g.insert_edge(1, 0));   // present, reversed
  EXPECT_FALSE(g.remove_edge(4, 4));   // self loop
  EXPECT_FALSE(g.remove_edge(6, 0));   // out of range
  EXPECT_FALSE(g.remove_edge(0, -2));  // out of range
  EXPECT_FALSE(g.remove_edge(0, 3));   // absent
  EXPECT_EQ(g, original);

  EXPECT_EQ(original.with_edge(3, 3), original);
  EXPECT_EQ(original.with_edge(2, 1), original);
  EXPECT_THROW((void)original.with_edge(0, 6), std::invalid_argument);
  EXPECT_THROW((void)original.with_edge(-1, 2), std::invalid_argument);
  EXPECT_EQ(original.without_edge(0, 3), original);
  EXPECT_EQ(original.without_edge(5, 5), original);
  EXPECT_EQ(original.without_edge(0, 6), original);
}

TEST(CSRGraph, EditsMatchFromCooOfTheSameEdgeSet) {
  // Small and dense, so edits hit empty rows, adjacent rows, and the first
  // and last slots of a row.
  const VertexId n = 12;
  BCDYN_SEEDED_RNG(rng, 4242);
  std::set<std::pair<VertexId, VertexId>> ref;
  CSRGraph g = rebuilt(n, ref);
  for (int op = 0; op < 600; ++op) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    const std::pair key{std::min(u, v), std::max(u, v)};
    const CSRGraph before = g;
    if (rng.next_bool(0.6)) {
      const bool want = u != v && ref.insert(key).second;
      ASSERT_EQ(g.insert_edge(u, v), want) << "op " << op;
      EXPECT_EQ(before.with_edge(u, v), g) << "op " << op;
    } else {
      const bool want = ref.erase(key) > 0;
      ASSERT_EQ(g.remove_edge(u, v), want) << "op " << op;
      EXPECT_EQ(before.without_edge(u, v), g) << "op " << op;
    }
    ASSERT_EQ(g, rebuilt(n, ref)) << "op " << op;
    expect_rows_sorted(g);
  }
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(ref.size()));
}

TEST(CSRGraph, InsertThenRemoveRestoresTheOriginalBytes) {
  const auto original = test::gnp_graph(40, 0.1, 5);
  BCDYN_SEEDED_RNG(rng, 99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto [u, v] = test::random_absent_edge(original, rng);
    ASSERT_NE(u, kNoVertex);
    auto g = original;
    ASSERT_TRUE(g.insert_edge(u, v));
    EXPECT_TRUE(g.has_edge(u, v));
    EXPECT_TRUE(g.has_edge(v, u));
    EXPECT_EQ(g.num_edges(), original.num_edges() + 1);
    ASSERT_TRUE(g.remove_edge(v, u));
    EXPECT_EQ(g, original);
    EXPECT_EQ(original.with_edge(u, v).without_edge(u, v), original);
  }
}

TEST(GraphBuilder, RejectsInvalidAndDuplicateEdges) {
  GraphBuilder b(5);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // duplicate (reversed)
  EXPECT_FALSE(b.add_edge(2, 2));  // self loop
  EXPECT_FALSE(b.add_edge(0, 5));  // out of range
  EXPECT_FALSE(b.add_edge(-1, 0));
  EXPECT_TRUE(b.add_edge(3, 4));
  EXPECT_EQ(b.num_edges(), 2u);
  EXPECT_TRUE(b.has_edge(0, 1));
  EXPECT_TRUE(b.has_edge(1, 0));
  EXPECT_FALSE(b.has_edge(0, 3));
  const auto g = std::move(b).build_csr();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Bfs, DistancesAndSigmaOnKnownGraph) {
  // Diamond: 0-1, 0-2, 1-3, 2-3: two shortest paths 0->3.
  COOGraph coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 1);
  coo.add_edge(0, 2);
  coo.add_edge(1, 3);
  coo.add_edge(2, 3);
  const auto g = CSRGraph::from_coo(std::move(coo));
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.dist[3], 2);
  EXPECT_DOUBLE_EQ(r.sigma[3], 2.0);
  EXPECT_DOUBLE_EQ(r.sigma[0], 1.0);
  EXPECT_EQ(r.order.size(), 4u);
  EXPECT_EQ(r.order[0], 0);
  EXPECT_TRUE(check_sssp_invariants(g, 0, r.dist, r.sigma));
}

TEST(Bfs, UnreachableVerticesStayAtInfinity) {
  COOGraph coo;
  coo.num_vertices = 5;
  coo.add_edge(0, 1);
  coo.add_edge(3, 4);
  const auto g = CSRGraph::from_coo(std::move(coo));
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kInfDist);
  EXPECT_EQ(dist[3], kInfDist);
}

TEST(Bfs, InvariantCheckerCatchesCorruption) {
  const auto g = test::cycle_graph(6);
  auto r = bfs(g, 0);
  EXPECT_TRUE(check_sssp_invariants(g, 0, r.dist, r.sigma));
  auto bad_sigma = r.sigma;
  bad_sigma[3] += 1.0;
  EXPECT_FALSE(check_sssp_invariants(g, 0, r.dist, bad_sigma));
  auto bad_dist = r.dist;
  bad_dist[2] = 9;
  EXPECT_FALSE(check_sssp_invariants(g, 0, bad_dist, r.sigma));
}

TEST(Bfs, EccentricityOfPathEndpoints) {
  const auto g = test::path_graph(10);
  EXPECT_EQ(eccentricity(g, 0), 9);
  EXPECT_EQ(eccentricity(g, 5), 5);
}

TEST(ConnectedComponents, CountsAndLabels) {
  COOGraph coo;
  coo.num_vertices = 7;
  coo.add_edge(0, 1);
  coo.add_edge(1, 2);
  coo.add_edge(4, 5);
  // 3 and 6 isolated.
  const auto g = CSRGraph::from_coo(std::move(coo));
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 4);
  EXPECT_TRUE(c.same(0, 2));
  EXPECT_TRUE(c.same(4, 5));
  EXPECT_FALSE(c.same(0, 4));
  EXPECT_FALSE(c.same(3, 6));
  EXPECT_EQ(largest_component_size(c), 3);
}

TEST(ConnectedComponents, CooAndCsrAgree) {
  const auto g = test::gnp_graph(60, 0.02, 33);
  const auto c1 = connected_components(g);
  const auto c2 = connected_components(g.to_coo());
  EXPECT_EQ(c1.count, c2.count);
  for (std::size_t v = 0; v < c1.label.size(); ++v) {
    EXPECT_EQ(c1.label[v], c2.label[v]);
  }
}

TEST(GraphStats, ReportsExpectedShape) {
  const auto g = test::star_graph(10);
  const auto s = compute_stats(g);
  EXPECT_EQ(s.num_vertices, 10);
  EXPECT_EQ(s.num_edges, 9);
  EXPECT_EQ(s.max_degree, 9);
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.approx_diameter, 2);
  EXPECT_FALSE(s.to_string().empty());
}

}  // namespace
}  // namespace bcdyn
