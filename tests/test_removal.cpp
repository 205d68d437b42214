// Decremental updates (edge removal): the incrementally repaired state
// must equal static recomputation after every removal, across the same
// merciless sweeps used for insertions.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <tuple>

#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "bc/sharded_gpu.hpp"
#include "bc/static_gpu.hpp"
#include "gen/generators.hpp"
#include "gpusim/cost_model.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

/// Removes `steps` random existing edges, checking full state equality
/// against static recomputation after every removal.
void check_removal_stream(CSRGraph g, const ApproxConfig& cfg, int steps,
                          std::uint64_t seed, int* case2_seen,
                          int* fallback_seen) {
  const VertexId n = g.num_vertices();
  BcStore store(n, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(n);
  BCDYN_SEEDED_RNG(rng, seed);

  for (int step = 0; step < steps; ++step) {
    COOGraph coo = g.to_coo();
    if (coo.edges.empty()) break;
    const auto [u, v] =
        coo.edges[static_cast<std::size_t>(rng.next_below(coo.edges.size()))];
    g = g.without_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      const VertexId s = store.sources()[static_cast<std::size_t>(si)];
      const auto r = engine.remove_update_source(
          g, s, store.dist_row(si), store.sigma_row(si), store.delta_row(si),
          store.bc(), u, v);
      if (r.update_case == UpdateCase::kAdjacent && case2_seen) ++*case2_seen;
      if (r.update_case == UpdateCase::kFar && fallback_seen) ++*fallback_seen;
    }

    BcStore fresh(n, cfg);
    brandes_all(g, fresh);
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
            << " removed=(" << u << "," << v << ")";
        ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
            << "sigma step=" << step << " si=" << si << " v=" << i
            << " removed=(" << u << "," << v << ")";
        ASSERT_NEAR(dl_upd[i], dl_ref[i],
                    1e-9 * std::max(1.0, std::abs(dl_ref[i])))
            << "delta step=" << step << " si=" << si << " v=" << i;
      }
    }
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

using RemovalParam = std::tuple<int, double, int, std::uint64_t>;

class RemovalStream : public ::testing::TestWithParam<RemovalParam> {};

TEST_P(RemovalStream, MatchesStaticRecomputeAfterEveryRemoval) {
  const auto [n, p, k, seed] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  ApproxConfig cfg{.num_sources = k, .seed = seed + 1};
  int case2 = 0;
  int fallback = 0;
  check_removal_stream(g, cfg, 10, seed + 2, &case2, &fallback);
  // Both the incremental and the fallback path must actually be exercised
  // across the sweep (checked in aggregate by the Coverage test below).
  (void)case2;
  (void)fallback;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, RemovalStream,
    ::testing::Values(RemovalParam{30, 0.08, 0, 501},
                      RemovalParam{30, 0.15, 0, 502},
                      RemovalParam{40, 0.30, 0, 503},
                      RemovalParam{48, 0.06, 12, 504},
                      RemovalParam{40, 0.05, 0, 505},   // sparse: fallbacks
                      RemovalParam{64, 0.03, 16, 506},  // disconnects likely
                      RemovalParam{24, 0.50, 0, 507}));

TEST(Removal, BothPathsAreExercised) {
  int case2 = 0;
  int fallback = 0;
  const auto g = test::gnp_graph(40, 0.08, 999);
  check_removal_stream(g, ApproxConfig{.num_sources = 0, .seed = 1}, 10, 7,
                       &case2, &fallback);
  EXPECT_GT(case2, 0) << "incremental removal path never ran";
  EXPECT_GT(fallback, 0) << "distance-growing fallback never ran";
}

TEST(Removal, BridgeRemovalDisconnects) {
  // Removing a path's middle edge splits the component; distances beyond
  // it become infinite through the fallback path.
  auto g = test::path_graph(10);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(10, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(10);
  g = g.without_edge(4, 5);
  for (int si = 0; si < store.num_sources(); ++si) {
    engine.remove_update_source(g, store.sources()[static_cast<std::size_t>(si)],
                                store.dist_row(si), store.sigma_row(si),
                                store.delta_row(si), store.bc(), 4, 5);
  }
  BcStore fresh(10, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-9, "bc");
  // Distances across the cut must be infinite in the updated store.
  EXPECT_EQ(store.dist_row(0)[9], kInfDist);
}

TEST(Removal, InsertThenRemoveRoundTripsExactly) {
  // insert(u,v) followed by remove(u,v) must restore all state.
  auto g = test::gnp_graph(36, 0.1, 77);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(36, cfg);
  brandes_all(g, store);
  const std::vector<double> bc0(store.bc().begin(), store.bc().end());

  DynamicCpuEngine engine(36);
  BCDYN_SEEDED_RNG(rng, 11);
  for (int round = 0; round < 6; ++round) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    const auto g_plus = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.update_source(g_plus, store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.remove_update_source(
          g, store.sources()[static_cast<std::size_t>(si)], store.dist_row(si),
          store.sigma_row(si), store.delta_row(si), store.bc(), u, v);
    }
    test::expect_near_spans(store.bc(), bc0, 1e-7, "round trip");
  }
}

TEST(Removal, DynamicBcUsesIncrementalPathOnCpu) {
  const auto g = gen::small_world(200, 4, 0.1, 5);
  DynamicBc analytic(g, {.engine = EngineKind::kCpu,
                         .approx = {.num_sources = 24, .seed = 2}});
  analytic.compute();
  // Remove a handful of random existing edges via the public API.
  auto coo = g.to_coo();
  BCDYN_SEEDED_RNG(rng, 9);
  rng.shuffle(std::span(coo.edges));
  int case_total = 0;
  for (int i = 0; i < 5; ++i) {
    const auto [u, v] = coo.edges[static_cast<std::size_t>(i)];
    const auto r = analytic.remove_edge(u, v);
    EXPECT_TRUE(r.inserted);
    case_total += r.case1 + r.case2 + r.case3;
  }
  EXPECT_EQ(case_total, 5 * 24);  // per-source case accounting present
  EXPECT_LT(analytic.verify_against_recompute(), 1e-7);
}

TEST(Removal, GpuEnginesMatchStaticRecompute) {
  for (Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    auto g = test::gnp_graph(40, 0.1, 313);
    ApproxConfig cfg{.num_sources = 10, .seed = 3};
    BcStore store(40, cfg);
    brandes_all(g, store);
    DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), mode);
    BCDYN_SEEDED_RNG(rng, 17);
    for (int step = 0; step < 8; ++step) {
      COOGraph coo = g.to_coo();
      if (coo.edges.empty()) break;
      const auto [u, v] =
          coo.edges[static_cast<std::size_t>(rng.next_below(coo.edges.size()))];
      g = g.without_edge(u, v);
      engine.remove_edge_update(g, store, u, v);

      BcStore fresh(40, cfg);
      brandes_all(g, fresh);
      for (int si = 0; si < store.num_sources(); ++si) {
        const auto d_upd = store.dist_row(si);
        const auto d_ref = fresh.dist_row(si);
        const auto s_upd = store.sigma_row(si);
        const auto s_ref = fresh.sigma_row(si);
        for (std::size_t i = 0; i < d_upd.size(); ++i) {
          ASSERT_EQ(d_upd[i], d_ref[i])
              << to_string(mode) << " step=" << step << " si=" << si
              << " v=" << i << " removed=(" << u << "," << v << ")";
          ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
              << to_string(mode) << " step=" << step << " si=" << si
              << " v=" << i;
        }
      }
      test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
    }
  }
}

TEST(Removal, GpuMixedInsertRemoveStream) {
  auto g = gen::small_world(100, 3, 0.1, 8);
  ApproxConfig cfg{.num_sources = 12, .seed = 4};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);
  DynamicGpuBc engine(sim::DeviceSpec::gtx_560(), Parallelism::kNode);
  BCDYN_SEEDED_RNG(rng, 23);
  std::vector<std::pair<VertexId, VertexId>> added;
  for (int op = 0; op < 20; ++op) {
    if (rng.next_bool(0.6) || added.empty()) {
      const auto [u, v] = test::random_absent_edge(g, rng);
      g = g.with_edge(u, v);
      engine.insert_edge_update(g, store, u, v);
      added.emplace_back(u, v);
    } else {
      const auto [u, v] = added.back();
      added.pop_back();
      g = g.without_edge(u, v);
      engine.remove_edge_update(g, store, u, v);
    }
  }
  BcStore fresh(g.num_vertices(), cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
}

TEST(Removal, DynamicBcGpuEnginesRemoveIncrementally) {
  const auto g = test::gnp_graph(60, 0.08, 44);
  for (EngineKind kind : {EngineKind::kGpuEdge, EngineKind::kGpuNode}) {
    DynamicBc analytic(g, {.engine = kind, .approx = {.num_sources = 10, .seed = 5}});
    analytic.compute();
    auto coo = g.to_coo();
    BCDYN_SEEDED_RNG(rng, 6);
    rng.shuffle(std::span(coo.edges));
    for (int i = 0; i < 4; ++i) {
      const auto [u, v] = coo.edges[static_cast<std::size_t>(i)];
      const auto r = analytic.remove_edge(u, v);
      EXPECT_TRUE(r.inserted);
      EXPECT_EQ(r.case1 + r.case2 + r.case3, 10);
    }
    EXPECT_LT(analytic.verify_against_recompute(), 1e-7) << to_string(kind);
  }
}

// ---------------------------------------------------------------------------
// SignedUpdateGolden: one fixed mixed insert/remove stream on a small
// preferential-attachment graph, replayed on every engine and pinned bit
// for bit - final score bits, each write's modeled seconds and engine
// counters (BlockCounters on the GPU, CpuOpCounters on the CPU), and every
// per-source (case, touched) pair.
// Insertions and removals share one signed Case-2 body in each engine, so
// this is the guard that folding them moved no number.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t score_bits_hash(std::span<const double> scores) {
  std::uint64_t h = kFnvBasis;
  for (const double x : scores) h = fnv_mix(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t counters_hash(std::uint64_t h, const sim::BlockCounters& c) {
  for (const std::uint64_t word :
       {c.rounds, c.items, c.instrs, c.global_reads, c.global_writes,
        c.atomics, c.atomic_conflicts, c.barriers,
        std::bit_cast<std::uint64_t>(c.cycles)}) {
    h = fnv_mix(h, word);
  }
  return h;
}

struct GoldenWrite {
  bool insert;
  VertexId u;
  VertexId v;
};

CSRGraph golden_graph() { return gen::preferential_attachment(48, 2, 11); }

constexpr ApproxConfig kGoldenSources{.num_sources = 8, .seed = 3};

/// 16 writes, about half removals of existing edges (some of them edges
/// the stream itself inserted) and half insertions of absent edges.
std::vector<GoldenWrite> golden_stream() {
  CSRGraph g = golden_graph();
  util::Rng rng(2024);
  std::vector<GoldenWrite> out;
  while (out.size() < 16) {
    GoldenWrite w{};
    w.insert = rng.next_bool(0.5);
    if (w.insert) {
      std::tie(w.u, w.v) = test::random_absent_edge(g, rng);
      g.insert_edge(w.u, w.v);
    } else {
      const COOGraph coo = g.to_coo();
      std::tie(w.u, w.v) =
          coo.edges[static_cast<std::size_t>(rng.next_below(coo.edges.size()))];
      g.remove_edge(w.u, w.v);
    }
    out.push_back(w);
  }
  return out;
}

struct GoldenRun {
  std::uint64_t score_hash = 0;
  std::uint64_t outcome_hash = kFnvBasis;  // every write's (case, touched)
  std::uint64_t counter_hash = kFnvBasis;  // every write's engine counters
  std::vector<std::uint64_t> modeled_bits;  // per write
  CpuOpCounters ops;                        // summed over writes; cpu only
  int insert_cases[4] = {};                 // per-source case histogram
  int remove_cases[4] = {};
};

/// Replays the golden stream through the per-source engine (cpu) or the
/// GPU adapter for `devices` (DynamicGpuBc on one, ShardedGpuBc on more),
/// and through DynamicBc alongside it: the analytic must report the same
/// modeled seconds and case counts per write and end on the same scores.
GoldenRun replay_golden(EngineKind kind, int devices) {
  CSRGraph g = golden_graph();
  const VertexId n = g.num_vertices();
  const Parallelism mode =
      kind == EngineKind::kGpuEdge ? Parallelism::kEdge : Parallelism::kNode;
  const sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
  DynamicBc analytic(g, {.engine = kind,
                         .approx = kGoldenSources,
                         .num_devices = devices});
  analytic.compute();

  BcStore store(n, kGoldenSources);
  std::unique_ptr<DynamicCpuEngine> cpu;
  std::unique_ptr<DynamicGpuBc> strided;
  std::unique_ptr<ShardedGpuBc> sharded;
  if (kind == EngineKind::kCpu) {
    brandes_all(g, store);
    cpu = std::make_unique<DynamicCpuEngine>(n);
  } else if (devices == 1) {
    strided = std::make_unique<DynamicGpuBc>(spec, mode);
    StaticGpuBc(spec, mode).compute(g, store);
  } else {
    sharded = std::make_unique<ShardedGpuBc>(devices, spec, mode);
    sharded->compute(g, store);
  }

  GoldenRun run;
  const sim::CostModel cost;
  const auto k = static_cast<std::size_t>(store.num_sources());
  for (const GoldenWrite& w : golden_stream()) {
    const bool applied =
        w.insert ? g.insert_edge(w.u, w.v) : g.remove_edge(w.u, w.v);
    EXPECT_TRUE(applied);
    std::vector<SourceUpdateOutcome> outcomes(k);
    double modeled = 0.0;
    if (cpu) {
      cpu->reset_counters();
      for (std::size_t si = 0; si < k; ++si) {
        const int i = static_cast<int>(si);
        const VertexId s = store.sources()[si];
        outcomes[si] =
            w.insert
                ? cpu->update_source(g, s, store.dist_row(i),
                                     store.sigma_row(i), store.delta_row(i),
                                     store.bc(), w.u, w.v)
                : cpu->remove_update_source(g, s, store.dist_row(i),
                                            store.sigma_row(i),
                                            store.delta_row(i), store.bc(),
                                            w.u, w.v);
      }
      const CpuOpCounters& ops = cpu->counters();
      run.ops += ops;
      for (const std::uint64_t word : {ops.instrs, ops.reads, ops.writes}) {
        run.counter_hash = fnv_mix(run.counter_hash, word);
      }
      modeled = sim::cpu_seconds(cost, ops.instrs, ops.reads, ops.writes);
    } else if (strided) {
      GpuUpdateResult r = w.insert
                              ? strided->insert_edge_update(g, store, w.u, w.v)
                              : strided->remove_edge_update(g, store, w.u, w.v);
      modeled = r.stats.seconds;
      run.counter_hash = counters_hash(run.counter_hash, r.stats.total);
      outcomes = std::move(r.outcomes);
    } else {
      ShardedUpdateResult r =
          w.insert ? sharded->insert_edge_update(g, store, w.u, w.v)
                   : sharded->remove_edge_update(g, store, w.u, w.v);
      modeled = r.launch.group.seconds;
      run.counter_hash = counters_hash(run.counter_hash, r.launch.group.total);
      outcomes = std::move(r.outcomes);
    }

    int cases[4] = {};
    for (const SourceUpdateOutcome& o : outcomes) {
      const int c = static_cast<int>(o.update_case);
      ++cases[c];
      ++(w.insert ? run.insert_cases : run.remove_cases)[c];
      run.outcome_hash = fnv_mix(run.outcome_hash, static_cast<std::uint64_t>(c));
      run.outcome_hash =
          fnv_mix(run.outcome_hash, static_cast<std::uint64_t>(o.touched));
    }
    run.modeled_bits.push_back(std::bit_cast<std::uint64_t>(modeled));

    const UpdateOutcome r = w.insert ? analytic.insert_edge(w.u, w.v)
                                     : analytic.remove_edge(w.u, w.v);
    EXPECT_EQ(r.inserted, 1);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.modeled_seconds),
              std::bit_cast<std::uint64_t>(modeled))
        << (w.insert ? "insert" : "remove") << " (" << w.u << "," << w.v << ")";
    EXPECT_EQ(r.case1, cases[1]);
    EXPECT_EQ(r.case2, cases[2]);
    EXPECT_EQ(r.case3, cases[3]);
  }
  run.score_hash = score_bits_hash(store.bc());
  EXPECT_EQ(score_bits_hash(analytic.scores()), run.score_hash);
  EXPECT_LT(analytic.verify_against_recompute(), 1e-9);
  return run;
}

struct GoldenExpect {
  EngineKind kind;
  int devices;
  std::uint64_t score_hash;
  std::uint64_t outcome_hash;
  std::uint64_t counter_hash;
  std::vector<std::uint64_t> modeled_bits;
};

TEST(SignedUpdateGolden, MixedStreamIsBitExactOnEveryEngine) {
  // Captured before insertion and removal shared a body in any engine.
  const std::vector<GoldenExpect> expected = {
      {EngineKind::kCpu, 1, 0xe2a3a7ae5252cf23ULL, 0x02181c01710b5633ULL,
       0xb3ea833a09f8d76aULL,
       {0x3ee9f1fa39782764ULL, 0x3ef0c88bdc28711fULL, 0x3ef6437c196ed4b8ULL,
        0x3eda976597691d5aULL, 0x3f0647bf86bd9e5cULL, 0x3f052f682380e498ULL,
        0x3efad09ef78a9eb8ULL, 0x3eede540b4789590ULL, 0x3eec7be83462e4adULL,
        0x3ee457652be8fc43ULL, 0x3ee830b61309afbfULL, 0x3efd7421824e15d5ULL,
        0x3ef5bdfe4ecbe6f0ULL, 0x3ef6a20986422a78ULL, 0x3ee6200d20e0049dULL,
        0x3ef4c8845e137bffULL}},
      {EngineKind::kGpuEdge, 1, 0x6ee06a218270410eULL, 0x6a78e74ae39850c1ULL,
       0x4298ad4a142cbca4ULL,
       {0x3ee56997918f0f16ULL, 0x3ee2ecdcf842efa6ULL, 0x3ee40cac333631f2ULL,
        0x3ee56a928b482200ULL, 0x3ee5937dc85649a2ULL, 0x3ee58902bc342407ULL,
        0x3eebc3c6289dab5eULL, 0x3ee4fdcc378ba688ULL, 0x3ee9f3af2593fbf4ULL,
        0x3ee80a449a07e3f7ULL, 0x3ee382b26395ba07ULL, 0x3ee42c88e7351896ULL,
        0x3eead8cfb3aef6cdULL, 0x3ee6ef6e2cf613deULL, 0x3ee6d74b65f8f922ULL,
        0x3ee4d7546acc2e2dULL}},
      {EngineKind::kGpuEdge, 2, 0x6ee06a218270410eULL, 0x6a78e74ae39850c1ULL,
       0xb07d3ac03a07c81eULL,
       {0x3ee57c440dce2e2cULL, 0x3ee386e005c8f857ULL, 0x3ee4c7690dad68cbULL,
        0x3ee6254f65bf58daULL, 0x3ee64e3aa2cd807cULL, 0x3ee59baf3873431cULL,
        0x3eebd672a4dcca74ULL, 0x3ee5b8891202dd61ULL, 0x3eea065ba1d31b0aULL,
        0x3ee81cf11647030dULL, 0x3ee3955edfd4d91dULL, 0x3ee43f35637437acULL,
        0x3eeaeb7c2fee15e3ULL, 0x3ee7aa2b076d4ab8ULL, 0x3ee7920840702ffbULL,
        0x3ee4ef83254c00abULL}},
      {EngineKind::kGpuNode, 1, 0x02f9a9582c22e877ULL, 0x02181c01710b5633ULL,
       0x0bee6d773597dbfaULL,
       {0x3ee4e739ce2997adULL, 0x3ee241404f3c4a4bULL, 0x3ee36851f4162aebULL,
        0x3ee33d2f0846eacaULL, 0x3eeb8d6ef2422564ULL, 0x3eeae93e876ba183ULL,
        0x3ef227308b6f138eULL, 0x3ee67f693d3cb53dULL, 0x3eea5cb960770acdULL,
        0x3eead0b030d610f6ULL, 0x3ee15d6869ac0cc8ULL, 0x3ee9642d1df174bdULL,
        0x3eecdcd07686d8ccULL, 0x3eec421a24580bbeULL, 0x3eec0628c8b662d6ULL,
        0x3ee73fc636bb6ae4ULL}},
      {EngineKind::kGpuNode, 2, 0x02f9a9582c22e877ULL, 0x02181c01710b5633ULL,
       0x0071e04561388003ULL,
       {0x3ee4f9e64a68b6c2ULL, 0x3ee2edefd9017214ULL, 0x3ee37afe70554a01ULL,
        0x3ee3f7ebe2be21a4ULL, 0x3eec482bccb95c3dULL, 0x3eeafbeb03aac099ULL,
        0x3ef23086c98ea319ULL, 0x3ee73a2617b3ec17ULL, 0x3eea6f65dcb629e2ULL,
        0x3eeae35cad15300bULL, 0x3ee1cb7d5fb4a177ULL, 0x3ee976d99a3093d3ULL,
        0x3eecef7cf2c5f7e2ULL, 0x3eecfcd6fecf4297ULL, 0x3eecc0e5a32d99afULL,
        0x3ee75272b2fa89faULL}},
  };
  for (const GoldenExpect& want : expected) {
    SCOPED_TRACE(::testing::Message()
                 << to_string(want.kind) << " devices=" << want.devices);
    const GoldenRun run = replay_golden(want.kind, want.devices);
    EXPECT_EQ(run.score_hash, want.score_hash);
    EXPECT_EQ(run.outcome_hash, want.outcome_hash);
    EXPECT_EQ(run.counter_hash, want.counter_hash);
    EXPECT_EQ(run.modeled_bits, want.modeled_bits);
    if (want.kind != EngineKind::kCpu) continue;
    EXPECT_EQ(run.ops.instrs, 11152U);
    EXPECT_EQ(run.ops.reads, 34986U);
    EXPECT_EQ(run.ops.writes, 17958U);
    // The stream covers every case in both directions: same-level,
    // surviving-parent and distance-growing removals; Case 1/2/3 inserts.
    EXPECT_EQ(std::vector<int>(run.insert_cases + 1, run.insert_cases + 4),
              (std::vector<int>{33, 31, 8}));
    EXPECT_EQ(std::vector<int>(run.remove_cases + 1, run.remove_cases + 4),
              (std::vector<int>{16, 23, 17}));
  }
}

}  // namespace
}  // namespace bcdyn
