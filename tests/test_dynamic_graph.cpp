// DynamicGraph (STINGER-lite blocked adjacency): insertion, removal,
// iteration, snapshots, and randomized differential testing against a
// simple reference set.
#include <gtest/gtest.h>

#include <set>

#include "graph/dynamic_graph.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

TEST(DynamicGraph, InsertBasics) {
  DynamicGraph g(5);
  EXPECT_TRUE(g.insert_edge(0, 1));
  EXPECT_FALSE(g.insert_edge(1, 0));  // duplicate
  EXPECT_FALSE(g.insert_edge(2, 2));  // self loop
  EXPECT_FALSE(g.insert_edge(0, 9));  // out of range
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.check_invariants());
}

TEST(DynamicGraph, RemoveBasics) {
  DynamicGraph g(4);
  g.insert_edge(0, 1);
  g.insert_edge(0, 2);
  g.insert_edge(0, 3);
  EXPECT_TRUE(g.remove_edge(0, 2));
  EXPECT_FALSE(g.remove_edge(0, 2));  // already gone
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.check_invariants());
}

TEST(DynamicGraph, BlockChainsSpanMultipleBlocks) {
  // Degree far above kBlockSlots forces multi-block chains.
  const VertexId n = 200;
  DynamicGraph g(n);
  for (VertexId v = 1; v < n; ++v) EXPECT_TRUE(g.insert_edge(0, v));
  EXPECT_EQ(g.degree(0), n - 1);
  std::set<VertexId> seen;
  g.for_each_neighbor(0, [&](VertexId w) { seen.insert(w); });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n - 1));
  EXPECT_TRUE(g.check_invariants());

  // Remove half, check chain compaction stays consistent.
  for (VertexId v = 1; v < n; v += 2) EXPECT_TRUE(g.remove_edge(0, v));
  EXPECT_EQ(g.degree(0), (n - 1) / 2);
  seen.clear();
  g.for_each_neighbor(0, [&](VertexId w) { seen.insert(w); });
  for (VertexId v = 1; v < n; ++v) {
    EXPECT_EQ(seen.count(v), static_cast<std::size_t>(v % 2 == 0)) << v;
  }
  EXPECT_TRUE(g.check_invariants());
}

TEST(DynamicGraph, SnapshotMatchesCsrRoundTrip) {
  const auto g0 = test::gnp_graph(80, 0.05, 12);
  const auto dyn = DynamicGraph::from_csr(g0);
  EXPECT_EQ(dyn.num_edges(), g0.num_edges());
  const auto snap = dyn.snapshot_csr();
  EXPECT_TRUE(snap == g0) << "snapshot is not byte-identical to from_coo";
  ASSERT_EQ(snap.num_vertices(), g0.num_vertices());
  ASSERT_EQ(snap.num_edges(), g0.num_edges());
  for (VertexId v = 0; v < g0.num_vertices(); ++v) {
    const auto a = g0.neighbors(v);
    const auto b = snap.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << v;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(DynamicGraph, ArcIterationVisitsEachDirectedArcOnce) {
  DynamicGraph g(4);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  std::multiset<std::pair<VertexId, VertexId>> arcs;
  g.for_each_arc([&](VertexId u, VertexId v) { arcs.insert({u, v}); });
  EXPECT_EQ(arcs.size(), 4u);
  EXPECT_EQ(arcs.count({0, 1}), 1u);
  EXPECT_EQ(arcs.count({1, 0}), 1u);
  EXPECT_EQ(arcs.count({2, 1}), 1u);
}

TEST(DynamicGraph, RandomizedDifferentialAgainstSet) {
  BCDYN_SEEDED_RNG(rng, 2024);
  const VertexId n = 50;
  DynamicGraph g(n);
  std::set<std::pair<VertexId, VertexId>> ref;
  for (int op = 0; op < 4000; ++op) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (u > v) std::swap(u, v);
    if (rng.next_bool(0.6)) {
      const bool inserted = g.insert_edge(u, v);
      EXPECT_EQ(inserted, u != v && ref.insert({u, v}).second);
    } else {
      const bool removed = g.remove_edge(u, v);
      EXPECT_EQ(removed, ref.erase({u, v}) > 0);
    }
  }
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(ref.size()));
  EXPECT_TRUE(g.check_invariants());
  // Snapshot must equal the reference edge set exactly.
  const auto snap = g.snapshot_csr();
  EXPECT_EQ(snap.num_edges(), static_cast<EdgeId>(ref.size()));
  for (const auto& [u, v] : ref) {
    EXPECT_TRUE(snap.has_edge(u, v)) << u << "," << v;
  }
}

TEST(DynamicGraph, FromCsrPreservesEverything) {
  const auto g0 = test::cycle_graph(30);
  auto dyn = DynamicGraph::from_csr(g0);
  EXPECT_TRUE(dyn.check_invariants());
  for (VertexId v = 0; v < 30; ++v) {
    EXPECT_EQ(dyn.degree(v), 2);
  }
  dyn.insert_edge(0, 15);
  EXPECT_EQ(dyn.degree(0), 3);
}

}  // namespace
}  // namespace bcdyn
