// The library's central correctness property: after any edge insertion (or,
// in a mixed stream, removal) the incrementally-updated per-source state
// (d, sigma, delta) and BC scores must equal a from-scratch static
// recomputation on the updated graph.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

/// One update of a stream: insert or remove the edge {u, v}.
struct StreamOp {
  bool insert = true;
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
};

/// A seeded update stream over `g`: with probability `remove_share` a step
/// removes a random present edge, otherwise it inserts a random absent one.
/// At share 0 no removal draw is made, so an insert-only stream's edges
/// depend on the seed alone. `graphs[i]` receives the graph after op i.
std::vector<StreamOp> make_stream(CSRGraph g, int steps, std::uint64_t seed,
                                  double remove_share,
                                  std::vector<CSRGraph>& graphs) {
  BCDYN_SEEDED_RNG(rng, seed);
  std::vector<StreamOp> ops;
  for (int step = 0; step < steps; ++step) {
    if (remove_share > 0.0 && g.num_edges() > 0 &&
        rng.next_bool(remove_share)) {
      const COOGraph coo = g.to_coo();
      const auto [u, v] = coo.edges[static_cast<std::size_t>(
          rng.next_below(coo.edges.size()))];
      g = g.without_edge(u, v);
      ops.push_back({false, u, v});
    } else {
      const auto [u, v] = test::random_absent_edge(g, rng);
      if (u == kNoVertex) break;
      g = g.with_edge(u, v);
      ops.push_back({true, u, v});
    }
    graphs.push_back(g);
  }
  return ops;
}

/// Applies `op` (whose post-op graph is `g`) to source si of `store`.
/// `force_general` routes Case 2 insertions through the Case 3 framework.
SourceUpdateOutcome apply_op(DynamicCpuEngine& engine, const CSRGraph& g,
                             BcStore& store, int si, const StreamOp& op,
                             bool force_general = false) {
  const VertexId s = store.sources()[static_cast<std::size_t>(si)];
  return op.insert
             ? engine.update_source(g, s, store.dist_row(si),
                                    store.sigma_row(si), store.delta_row(si),
                                    store.bc(), op.u, op.v, force_general)
             : engine.remove_update_source(g, s, store.dist_row(si),
                                           store.sigma_row(si),
                                           store.delta_row(si), store.bc(),
                                           op.u, op.v);
}

struct StreamCounts {
  int performed = 0;   // ops applied
  int recomputed = 0;  // (source, removal) pairs that lengthened distances
};

/// Applies a `make_stream` stream to g, updating with the CPU engine and
/// checking full state equality against static recomputation after every
/// step. Reports what ran via `counts` (gtest ASSERTs require a void
/// function).
void check_stream(const CSRGraph& g, const ApproxConfig& cfg, int steps,
                  std::uint64_t seed, bool force_general, double remove_share,
                  StreamCounts& counts) {
  const VertexId n = g.num_vertices();
  std::vector<CSRGraph> graphs;
  const auto ops = make_stream(g, steps, seed, remove_share, graphs);
  BcStore store(n, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(n);

  for (std::size_t step = 0; step < ops.size(); ++step) {
    const StreamOp& op = ops[step];
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto r = apply_op(engine, graphs[step], store, si, op,
                              force_general);
      if (!op.insert && r.update_case == UpdateCase::kFar) ++counts.recomputed;
    }
    ++counts.performed;

    BcStore fresh(n, cfg);
    brandes_all(graphs[step], fresh);
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto d_upd = store.dist_row(si);
      const auto d_ref = fresh.dist_row(si);
      const auto s_upd = store.sigma_row(si);
      const auto s_ref = fresh.sigma_row(si);
      const auto dl_upd = store.delta_row(si);
      const auto dl_ref = fresh.delta_row(si);
      for (std::size_t i = 0; i < d_upd.size(); ++i) {
        ASSERT_EQ(d_upd[i], d_ref[i])
            << "dist step=" << step << " si=" << si << " v=" << i
            << (op.insert ? " inserted=(" : " removed=(") << op.u << ","
            << op.v << ")";
        ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
            << "sigma step=" << step << " si=" << si << " v=" << i;
        ASSERT_NEAR(dl_upd[i], dl_ref[i],
                    1e-9 * std::max(1.0, std::abs(dl_ref[i])))
            << "delta step=" << step << " si=" << si << " v=" << i;
      }
    }
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

using StreamParam = std::tuple<int /*n*/, double /*p*/, int /*k*/,
                               std::uint64_t /*seed*/, bool /*general*/>;

class DynamicCpuStream : public ::testing::TestWithParam<StreamParam> {};

TEST_P(DynamicCpuStream, MatchesStaticRecomputeAfterEveryInsertion) {
  const auto [n, p, k, seed, general] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  ApproxConfig cfg{.num_sources = k, .seed = seed + 1};
  StreamCounts counts;
  check_stream(g, cfg, 12, seed + 2, general, /*remove_share=*/0.0, counts);
  EXPECT_GT(counts.performed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, DynamicCpuStream,
    ::testing::Values(
        // Sparse: long BFS trees, many Case 3 insertions.
        StreamParam{30, 0.04, 0, 101, false},
        StreamParam{30, 0.04, 0, 102, false},
        StreamParam{48, 0.05, 0, 103, false},
        StreamParam{48, 0.05, 12, 104, false},
        // Denser: shallow trees, Case 1/2 dominate.
        StreamParam{30, 0.15, 0, 105, false},
        StreamParam{40, 0.20, 0, 106, false},
        StreamParam{40, 0.20, 10, 107, false},
        // Very sparse: disconnected, exercises component attachment.
        StreamParam{40, 0.02, 0, 108, false},
        StreamParam{64, 0.015, 0, 109, false},
        StreamParam{64, 0.015, 16, 110, false},
        // Same sweeps through the general (Case 3) path for Case 2 edges.
        StreamParam{30, 0.04, 0, 101, true},
        StreamParam{30, 0.15, 0, 105, true},
        StreamParam{40, 0.02, 0, 108, true},
        StreamParam{48, 0.05, 12, 104, true}));

using MixedParam = std::tuple<int /*n*/, double /*p*/, int /*k*/,
                              std::uint64_t /*seed*/>;

class DynamicCpuMixedStream : public ::testing::TestWithParam<MixedParam> {};

TEST_P(DynamicCpuMixedStream, MatchesStaticRecomputeAfterEveryUpdate) {
  // The same harness with 40% removals: removals that lengthen distances
  // make the engine recompute the source, and the stream must reach one.
  const auto [n, p, k, seed] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  ApproxConfig cfg{.num_sources = k, .seed = seed + 1};
  StreamCounts counts;
  check_stream(g, cfg, 12, seed + 2, /*force_general=*/false,
               /*remove_share=*/0.4, counts);
  EXPECT_GT(counts.performed, 0);
  EXPECT_GT(counts.recomputed, 0) << "no distance-growing removal";
}

INSTANTIATE_TEST_SUITE_P(MixedSweep, DynamicCpuMixedStream,
                         ::testing::Values(MixedParam{48, 0.05, 12, 111},
                                           MixedParam{64, 0.015, 16, 112},
                                           MixedParam{40, 0.20, 10, 113}));

TEST(DynamicCpu, PathGraphChordInsertions) {
  // Chords on a path create textbook Case 3 updates with long moved chains.
  auto g = test::path_graph(24);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(24, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(24);
  const std::pair<VertexId, VertexId> chords[] = {
      {0, 23}, {0, 12}, {5, 18}, {2, 3} /* already present: no-op below */};
  for (const auto& [u, v] : chords) {
    if (g.has_edge(u, v)) continue;
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.update_source(g, store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
    BcStore fresh(24, cfg);
    brandes_all(g, fresh);
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-8, "bc");
  }
}

TEST(DynamicCpu, ComponentAttachment) {
  // Two disjoint cliques; inserting a bridge attaches a whole component
  // (the one-endpoint-unreachable Case 3 sub-case) for every source.
  COOGraph coo;
  coo.num_vertices = 12;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) {
      coo.add_edge(u, v);
      coo.add_edge(u + 6, v + 6);
    }
  }
  auto g = CSRGraph::from_coo(std::move(coo));
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(12, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(12);

  g = g.with_edge(2, 9);
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto r = engine.update_source(
        g, store.sources()[static_cast<std::size_t>(si)], store.dist_row(si),
        store.sigma_row(si), store.delta_row(si), store.bc(), 2, 9);
    EXPECT_EQ(r.update_case, UpdateCase::kFar);
  }
  BcStore fresh(12, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-9, "bc");
  // The bridge endpoints now carry all cross-clique pairs.
  EXPECT_GT(store.bc()[2], 0.0);
  EXPECT_GT(store.bc()[9], 0.0);
}

TEST(DynamicCpu, Case1InsertionLeavesStateUntouched) {
  // A 4-cycle: opposite corners are equidistant from every vertex...
  // actually use two vertices at equal distance from all sources of a
  // symmetric graph: on C4, vertices 1 and 3 are both at distance 1 from 0
  // and 2, and distance (0,2) from each other... we verify via the engine.
  auto g = test::cycle_graph(4);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(4, cfg);
  brandes_all(g, store);
  const std::vector<double> bc_before(store.bc().begin(), store.bc().end());

  DynamicCpuEngine engine(4);
  g = g.with_edge(1, 3);  // d(1)=d(3) from sources 0 and 2; case 2 from 1, 3
  int case1 = 0;
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto r = engine.update_source(
        g, store.sources()[static_cast<std::size_t>(si)], store.dist_row(si),
        store.sigma_row(si), store.delta_row(si), store.bc(), 1, 3);
    if (r.update_case == UpdateCase::kNoWork) {
      ++case1;
      EXPECT_EQ(r.touched, 0);
    }
  }
  EXPECT_EQ(case1, 2);  // sources 0 and 2 see |d(1)-d(3)| = 0
  BcStore fresh(4, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-12, "bc");
  (void)bc_before;
}

TEST(DynamicCpu, TouchedCountBoundedByN) {
  auto g = gen::small_world(300, 3, 0.05, 5);
  ApproxConfig cfg{.num_sources = 8, .seed = 3};
  BcStore store(300, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(300);
  BCDYN_SEEDED_RNG(rng, 77);
  for (int step = 0; step < 5; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto r = engine.update_source(
          g, store.sources()[static_cast<std::size_t>(si)],
          store.dist_row(si), store.sigma_row(si), store.delta_row(si),
          store.bc(), u, v);
      EXPECT_LE(r.touched, 300);
        if (r.update_case == UpdateCase::kNoWork) {
        EXPECT_EQ(r.touched, 0);
      }
    }
  }
}

TEST(DynamicCpu, CountersIncreaseMonotonically) {
  auto g = test::gnp_graph(40, 0.1, 9);
  ApproxConfig cfg{.num_sources = 4, .seed = 1};
  BcStore store(40, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(40);
  BCDYN_SEEDED_RNG(rng, 13);
  std::uint64_t last = 0;
  for (int step = 0; step < 3; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.update_source(g, store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
    const auto& ops = engine.counters();
    EXPECT_GT(ops.reads + ops.writes, last);
    last = ops.reads + ops.writes;
  }
  engine.reset_counters();
  EXPECT_EQ(engine.counters().reads, 0u);
}

TEST(DynamicCpu, PerSourceCountsDependOnlyOnThatSource) {
  // bench/scaling_cpu_cores models CPU lanes by adding each source's
  // counters() change to its lane: exact only if a source's counts never
  // depend on which sources the engine ran before it. One engine running
  // every source in order must count exactly what a fresh engine per
  // (op, source) counts, over inserts and distance-growing removals.
  const auto g0 = gen::small_world(120, 3, 0.1, 17);
  const ApproxConfig cfg{.num_sources = 10, .seed = 3};
  std::vector<CSRGraph> graphs;
  const auto stream = make_stream(g0, 16, 71, 0.4, graphs);
  BcStore shared_store(g0.num_vertices(), cfg);
  BcStore fresh_store(g0.num_vertices(), cfg);
  brandes_all(g0, shared_store);
  brandes_all(g0, fresh_store);
  DynamicCpuEngine shared(g0.num_vertices());

  int recomputed = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    for (int si = 0; si < shared_store.num_sources(); ++si) {
      const CpuOpCounters before = shared.counters();
      const auto r = apply_op(shared, graphs[i], shared_store, si, stream[i]);
      const CpuOpCounters& after = shared.counters();
      if (!stream[i].insert && r.update_case == UpdateCase::kFar) ++recomputed;

      DynamicCpuEngine alone(g0.num_vertices());
      apply_op(alone, graphs[i], fresh_store, si, stream[i]);
      EXPECT_EQ(after.instrs - before.instrs, alone.counters().instrs)
          << "op=" << i << " si=" << si;
      EXPECT_EQ(after.reads - before.reads, alone.counters().reads)
          << "op=" << i << " si=" << si;
      EXPECT_EQ(after.writes - before.writes, alone.counters().writes)
          << "op=" << i << " si=" << si;
    }
  }
  EXPECT_GT(recomputed, 0) << "no distance-growing removal in the stream";
}

}  // namespace
}  // namespace bcdyn
