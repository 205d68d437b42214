// Randomized differential fuzz harness: for every generator in the
// gen/suite, drive a seeded random insertion stream through all four
// update paths - sequential CPU, GPU edge-parallel, GPU node-parallel, and
// the batched path - and after EVERY step compare the full store (d,
// sigma, delta, BC) against a fresh brandes_all on the current graph. Any
// divergence pinpoints the step, source and vertex that first disagreed.
//
// Built as its own executable (bcdyn_fuzz_tests, ctest label "fuzz") so
// the heavier randomized sweep can be filtered in or out:
//   ctest -L fuzz              # just the fuzzers
//   ctest -LE fuzz             # everything else
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "bc/static_gpu.hpp"
#include "gpusim/fault_injector.hpp"
#include "gen/suite.hpp"
#include "graph/dynamic_graph.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"

namespace bcdyn {
namespace {

/// Sum of the per-source scenario counters the engines bump in `m` on every
/// analytic update (invariants are asserted on deltas).
std::uint64_t case_counter_total(const trace::MetricsRegistry& m) {
  return m.counter_value("bc.case1.count") + m.counter_value("bc.case2.count") +
         m.counter_value("bc.case3.count");
}

constexpr int kSteps = 32;
constexpr int kBatchFlush = 5;  // batch path flushes every 5 pending edges
constexpr double kScale = 0.005;  // suite minimums kick in: ~256 vertices
constexpr int kNumSources = 8;

struct PathState {
  std::string name;
  BcStore store;

  PathState(std::string n, VertexId num_vertices, const ApproxConfig& cfg)
      : name(std::move(n)), store(num_vertices, cfg) {}
};

void expect_store_matches(const BcStore& got, const BcStore& want,
                          const std::string& path, int step) {
  for (int si = 0; si < got.num_sources(); ++si) {
    const auto d_g = got.dist_row(si);
    const auto d_w = want.dist_row(si);
    const auto sg_g = got.sigma_row(si);
    const auto sg_w = want.sigma_row(si);
    const auto dl_g = got.delta_row(si);
    const auto dl_w = want.delta_row(si);
    for (std::size_t v = 0; v < d_g.size(); ++v) {
      ASSERT_EQ(d_g[v], d_w[v])
          << path << " dist step=" << step << " si=" << si << " v=" << v;
      ASSERT_DOUBLE_EQ(sg_g[v], sg_w[v])
          << path << " sigma step=" << step << " si=" << si << " v=" << v;
      ASSERT_NEAR(dl_g[v], dl_w[v],
                  1e-7 * std::max(1.0, std::abs(dl_w[v])))
          << path << " delta step=" << step << " si=" << si << " v=" << v;
    }
  }
  const auto bc_g = got.bc();
  const auto bc_w = want.bc();
  for (std::size_t v = 0; v < bc_g.size(); ++v) {
    ASSERT_NEAR(bc_g[v], bc_w[v], 1e-6 * std::max(1.0, std::abs(bc_w[v])))
        << path << " bc step=" << step << " v=" << v;
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialFuzz, AllPathsMatchFreshRecomputeAfterEveryStep) {
  // The whole randomized stream runs under the strict shadow-memory hazard
  // detector: any same-round data race inside a GPU-engine kernel throws
  // HazardError and fails the test at the offending step, on top of the
  // numeric differential checks below.
  test::HazardRuntime rt(/*strict=*/true);
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  CSRGraph g = entry.graph;
  const VertexId n = g.num_vertices();
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};

  PathState cpu("cpu", n, cfg);
  PathState edge("gpu-edge", n, cfg);
  PathState node("gpu-node", n, cfg);
  PathState batch("batch", n, cfg);
  for (auto* p : {&cpu, &edge, &node, &batch}) brandes_all(g, p->store);

  const auto spec = sim::DeviceSpec::tesla_c2075();
  DynamicCpuEngine cpu_engine(n, rt);
  DynamicGpuBc edge_engine(spec, Parallelism::kEdge, {}, 0, false, rt);
  DynamicGpuBc node_engine(spec, Parallelism::kNode, {}, 0, false, rt);
  DynamicGpuBc batch_engine(spec, Parallelism::kEdge, {}, 0, false, rt);

  // The batch path lags: pending edges accumulate against batch_base and
  // are flushed through insert_edge_batch every kBatchFlush steps (and at
  // the end), after which its store must agree with everyone else's.
  CSRGraph batch_base = g;
  std::vector<std::pair<VertexId, VertexId>> pending;
  // Alternate a tight and a loose threshold between flushes so the fuzzer
  // exercises both the incremental path and the recompute fallback.
  int flushes = 0;

  BCDYN_SEEDED_RNG(rng, 978 + std::hash<std::string>{}(gen_name) % 1000);
  for (int step = 0; step < kSteps; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);

    const std::uint64_t cases_before = case_counter_total(rt.metrics);
    for (int si = 0; si < cpu.store.num_sources(); ++si) {
      const VertexId s = cpu.store.sources()[static_cast<std::size_t>(si)];
      cpu_engine.update_source(g, s, cpu.store.dist_row(si),
                               cpu.store.sigma_row(si),
                               cpu.store.delta_row(si), cpu.store.bc(), u, v);
    }
    edge_engine.insert_edge_update(g, edge.store, u, v);
    node_engine.insert_edge_update(g, node.store, u, v);
    pending.emplace_back(u, v);

    // Metric accounting invariant: three engines just classified this
    // insertion once per source, and every classification lands in exactly
    // one of the three case counters.
    ASSERT_EQ(case_counter_total(rt.metrics) - cases_before,
              static_cast<std::uint64_t>(3 * kNumSources))
        << "case counters out of step at step=" << step;
    const auto touched = rt.metrics.histogram("bc.touched_fraction");
    EXPECT_LE(touched.max, 1.0)
        << "a source update claimed to touch more vertices than exist";

    BcStore fresh(n, cfg);
    brandes_all(g, fresh);
    expect_store_matches(cpu.store, fresh, cpu.name, step);
    expect_store_matches(edge.store, fresh, edge.name, step);
    expect_store_matches(node.store, fresh, node.name, step);

    const bool last = step + 1 == kSteps;
    if (static_cast<int>(pending.size()) == kBatchFlush || last) {
      const auto snapshots = build_batch_snapshots(batch_base, pending);
      ASSERT_EQ(snapshots.edges.size(), pending.size());
      const BatchConfig flush_cfg{flushes % 2 == 0 ? 0.25 : 0.02};
      batch_engine.insert_edge_batch(snapshots, batch.store, flush_cfg);
      batch_base = g;
      pending.clear();
      ++flushes;
      expect_store_matches(batch.store, fresh, batch.name, step);
    }
  }
  EXPECT_GT(flushes, 0);
  EXPECT_EQ(rt.hazards.violations(), 0u)
      << "GPU engines flagged data hazards during the fuzz stream";
  EXPECT_GT(rt.hazards.tracked_accesses(), 0u)
      << "hazard detector saw no addressed accesses - kernels not converted?";
}

INSTANTIATE_TEST_SUITE_P(Suite, DifferentialFuzz,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& info) { return info.param; });

// --- fault-injecting mode -------------------------------------------------
// The same differential idea with the deterministic fault injector live
// (gpusim/fault_injector.hpp): a GPU-engine DynamicBc rides a seeded
// insertion stream while kernel aborts, stalls, and device-loss polls fire
// per its plan, recovering through bounded retries. The CPU-engine
// DynamicBc never touches the simulated runtime and is the fault-free
// reference; after every step the recovered GPU scores must stay in
// numeric parity with it. Strict hazard detection stays on throughout, so
// a retried launch that replayed into dirty state would be flagged as a
// hazard or a divergence at the exact step.

class FaultedDifferentialFuzz : public ::testing::TestWithParam<std::string> {
};

TEST_P(FaultedDifferentialFuzz, RecoveredGpuMatchesCpuReferenceEveryStep) {
  test::HazardRuntime rt(/*strict=*/true);
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};

  DynamicBc cpu(entry.graph, {.engine = EngineKind::kCpu, .approx = cfg});
  DynamicBc gpu(entry.graph,
                {.engine = EngineKind::kGpuEdge,
                 .approx = cfg,
                 .num_devices = 2,
                 .recovery = {.max_retries = 10,
                              .fallback_recompute = false}},
                rt);
  cpu.compute();

  // No device loss here: the seed mixes std::hash, which varies across
  // standard libraries, and losing BOTH devices is unrecoverable by
  // design - an all_lost throw would be a platform-dependent flake, not a
  // parity failure. Loss/resharding has its own deterministic fixtures in
  // the chaos suite (test_fault_injection.cpp).
  sim::FaultPlan plan;
  plan.seed = 0xD1FF ^ std::hash<std::string>{}(gen_name);
  plan.kernel_abort_rate = 0.2;
  plan.stall_rate = 0.2;
  rt.faults.configure(plan);
  rt.faults.set_enabled(true);

  gpu.compute();
  BCDYN_SEEDED_RNG(rng, 979 + std::hash<std::string>{}(gen_name) % 1000);
  for (int step = 0; step < 16; ++step) {
    const auto [u, v] = test::random_absent_edge(cpu.graph(), rng);
    if (u == kNoVertex) break;
    cpu.insert_edge(u, v);
    gpu.insert_edge(u, v);
    const auto want = cpu.scores();
    const auto got = gpu.scores();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t x = 0; x < got.size(); ++x) {
      ASSERT_NEAR(got[x], want[x], 1e-6 * std::max(1.0, std::abs(want[x])))
          << "recovered GPU scores diverged from the CPU reference at step "
          << step << " vertex " << x;
    }
  }
  EXPECT_GT(rt.faults.injected(), 0u)
      << "fault plan fired nothing - the mode tested a plain run";
  EXPECT_EQ(rt.hazards.violations(), 0u)
      << "recovery replayed a launch into inconsistent shadow state";
}

INSTANTIATE_TEST_SUITE_P(Suite, FaultedDifferentialFuzz,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& info) { return info.param; });

// --- patched-CSR mode -----------------------------------------------------
// DynamicBc patches its one CSRGraph in place on every write. A
// DynamicGraph fed the same writes is the reference: after every step the
// analytic's graph must equal the reference's snapshot_csr() array for
// array (row offsets, neighbors, arc_src/arc_dst), and the two must agree
// on which writes they accepted. The streams mix valid inserts and
// removals with writes both must reject: duplicates, self loops,
// out-of-range endpoints, and removals of absent edges.

constexpr int kPatchSteps = 40;

/// One write of the mixed stream, drawn against the current graph `g`.
struct Write {
  bool insert = true;
  VertexId u = 0;
  VertexId v = 0;
};

Write random_write(const CSRGraph& g, util::Rng& rng) {
  const VertexId n = g.num_vertices();
  const auto any_vertex = [&] {
    return static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  const auto present = [&](bool insert) {
    const auto a = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(g.num_arcs())));
    return Write{insert, g.arc_src()[a], g.arc_dst()[a]};
  };
  const auto absent = [&](bool insert) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    return Write{insert, u, v};
  };
  switch (rng.next_below(10)) {
    case 0:
      return present(/*insert=*/true);  // duplicate insert
    case 1: {
      const VertexId v = any_vertex();
      return {rng.next_bool(0.5), v, v};  // self loop
    }
    case 2:  // out-of-range endpoint
      return {rng.next_bool(0.5), any_vertex(), rng.next_bool(0.5) ? n : -1};
    case 3:
      return absent(/*insert=*/false);  // absent removal
    case 4:
    case 5:
    case 6:
      return present(/*insert=*/false);
    default:
      return absent(/*insert=*/true);
  }
}

class PatchedCsrDifferential : public ::testing::TestWithParam<std::string> {
};

TEST_P(PatchedCsrDifferential, GraphEqualsDynamicGraphSnapshotEveryStep) {
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};
  for (const EngineKind engine : {EngineKind::kCpu, EngineKind::kGpuEdge}) {
    SCOPED_TRACE(to_string(engine));
    DynamicBc::Options options;
    options.engine = engine;
    options.approx = cfg;
    DynamicBc bc(entry.graph, options);
    bc.compute();
    DynamicGraph ref = DynamicGraph::from_csr(entry.graph);
    BCDYN_SEEDED_RNG(rng, 980 + std::hash<std::string>{}(gen_name) % 1000);
    int applied = 0;
    for (int step = 0; step < kPatchSteps; ++step) {
      const Write w = random_write(bc.graph(), rng);
      const bool want = w.insert ? ref.insert_edge(w.u, w.v)
                                 : ref.remove_edge(w.u, w.v);
      const UpdateOutcome got =
          w.insert ? bc.insert_edge(w.u, w.v) : bc.remove_edge(w.u, w.v);
      ASSERT_EQ(got.inserted == 1, want)
          << (w.insert ? "insert" : "remove") << " (" << w.u << ", " << w.v
          << ") verdicts differ at step " << step;
      ASSERT_TRUE(bc.graph() == ref.snapshot_csr())
          << "patched CSR diverged from the snapshot at step " << step;
      applied += want ? 1 : 0;
    }
    EXPECT_GT(applied, 0);
    EXPECT_LT(bc.verify_against_recompute(), 1e-7);
  }
}

TEST_P(PatchedCsrDifferential, BatchStagingAdmitsLikeDynamicGraph) {
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  const VertexId n = entry.graph.num_vertices();
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};
  for (const EngineKind engine : {EngineKind::kCpu, EngineKind::kGpuEdge}) {
    SCOPED_TRACE(to_string(engine));
    DynamicBc::Options options;
    options.engine = engine;
    options.approx = cfg;
    DynamicBc bc(entry.graph, options);
    bc.compute();
    DynamicGraph ref = DynamicGraph::from_csr(entry.graph);
    BCDYN_SEEDED_RNG(rng, 981 + std::hash<std::string>{}(gen_name) % 1000);
    for (int b = 0; b < 4; ++b) {
      const CSRGraph& g = bc.graph();
      const auto fresh = test::random_absent_edge(g, rng);
      const auto other = test::random_absent_edge(g, rng);
      const auto a = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(g.num_arcs())));
      const std::vector<std::pair<VertexId, VertexId>> edges = {
          fresh,
          {fresh.second, fresh.first},  // in-batch repeat, reversed
          {g.arc_src()[a], g.arc_dst()[a]},  // already present
          other,
          {3, 3},  // self loop
          {0, n},  // out of range
          other,   // in-batch repeat
      };
      int want_inserted = 0;
      int want_skipped = 0;
      for (const auto& [u, v] : edges) {
        ++(ref.insert_edge(u, v) ? want_inserted : want_skipped);
      }
      const UpdateOutcome got = bc.insert_edge_batch(edges);
      ASSERT_EQ(got.inserted, want_inserted) << "batch " << b;
      ASSERT_EQ(got.skipped, want_skipped) << "batch " << b;
      ASSERT_TRUE(bc.graph() == ref.snapshot_csr())
          << "batch-staged CSR diverged from the snapshot at batch " << b;
    }
    EXPECT_LT(bc.verify_against_recompute(), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, PatchedCsrDifferential,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& info) { return info.param; });

// --- fast-path mode -------------------------------------------------------
// Edge-parallel sweeps charge their early-out items in closed form instead
// of stepping them (sim::BlockContext::parallel_for_guarded/_ranged); only
// the hazard shadow forces full stepping, because it needs every address.
// The same seeded stream - a static compute(), single-edge inserts hitting
// case 2 and case 3, adjacent and far removals, and two batches (one
// incremental, one through the recompute fallback) - runs once with the
// shadow off (fast path) and once with it on (full stepping), with
// atomic-conflict tracking off and on. Every launch's counters and modeled
// cycles, and every score, must be bit-identical between the two.

/// What one run of the stream produced: each launch's stats (and, for the
/// batches, each job's counters), the final store, and how often each
/// update case occurred.
struct StreamRun {
  explicit StreamRun(BcStore initial) : store(std::move(initial)) {}

  std::vector<sim::KernelStats> stats;
  std::vector<sim::BlockCounters> jobs;
  BcStore store;
  int inserts_case2 = 0;
  int inserts_case3 = 0;
  int removals_adjacent = 0;
  int removals_far = 0;
};

StreamRun run_edge_stream(const CSRGraph& g0, const std::string& gen_name,
                          bool conflicts, sim::Runtime& rt) {
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};
  const auto spec = sim::DeviceSpec::tesla_c2075();
  StreamRun run(BcStore(g0.num_vertices(), cfg));
  CSRGraph g = g0;

  StaticGpuBc stat(spec, Parallelism::kEdge, {}, 0, conflicts, rt);
  run.stats.push_back(stat.compute(g, run.store));

  DynamicGpuBc engine(spec, Parallelism::kEdge, {}, 0, conflicts, rt);
  auto tally = [&](const GpuUpdateResult& r, bool insert) {
    run.stats.push_back(r.stats);
    for (const auto& o : r.outcomes) {
      if (o.update_case == UpdateCase::kAdjacent) {
        ++(insert ? run.inserts_case2 : run.removals_adjacent);
      } else if (o.update_case == UpdateCase::kFar) {
        ++(insert ? run.inserts_case3 : run.removals_far);
      }
    }
  };

  BCDYN_SEEDED_RNG(rng, 982 + std::hash<std::string>{}(gen_name) % 1000);
  for (int step = 0; step < 8; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    tally(engine.insert_edge_update(g, run.store, u, v), /*insert=*/true);
  }
  // Removals: random edges (mostly adjacent-level ones whose lower end
  // keeps another parent), then an edge at a source, whose other end loses
  // its only parent - a far removal for that source.
  for (int step = 0; step < 6; ++step) {
    const auto a = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(g.num_arcs())));
    const VertexId u = g.arc_src()[a];
    const VertexId v = g.arc_dst()[a];
    g = g.without_edge(u, v);
    tally(engine.remove_edge_update(g, run.store, u, v), /*insert=*/false);
  }
  const VertexId s = run.store.sources().front();
  if (g.degree(s) > 0) {
    const VertexId x = g.neighbors(s).front();
    g = g.without_edge(s, x);
    tally(engine.remove_edge_update(g, run.store, s, x), /*insert=*/false);
  }

  for (const double threshold : {0.25, 0.02}) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    CSRGraph staged = g;
    for (int e = 0; e < 4; ++e) {
      const auto edge = test::random_absent_edge(staged, rng);
      if (edge.first == kNoVertex) break;
      staged = staged.with_edge(edge.first, edge.second);
      edges.push_back(edge);
    }
    const auto snapshots = build_batch_snapshots(g, edges);
    const GpuBatchResult r =
        engine.insert_edge_batch(snapshots, run.store, BatchConfig{threshold});
    run.stats.push_back(r.stats);
    run.jobs.insert(run.jobs.end(), r.job_stats.begin(), r.job_stats.end());
    g = staged;
  }
  return run;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_counters_identical(const sim::BlockCounters& fast,
                               const sim::BlockCounters& full,
                               const std::string& what) {
  EXPECT_EQ(fast.rounds, full.rounds) << what;
  EXPECT_EQ(fast.items, full.items) << what;
  EXPECT_EQ(fast.instrs, full.instrs) << what;
  EXPECT_EQ(fast.global_reads, full.global_reads) << what;
  EXPECT_EQ(fast.global_writes, full.global_writes) << what;
  EXPECT_EQ(fast.atomics, full.atomics) << what;
  EXPECT_EQ(fast.atomic_conflicts, full.atomic_conflicts) << what;
  EXPECT_EQ(fast.barriers, full.barriers) << what;
  EXPECT_EQ(bits(fast.cycles), bits(full.cycles))
      << what << " cycles " << fast.cycles << " vs " << full.cycles;
}

template <typename T>
void expect_row_identical(std::span<const T> fast, std::span<const T> full,
                          const std::string& what) {
  ASSERT_EQ(fast.size(), full.size()) << what;
  for (std::size_t v = 0; v < fast.size(); ++v) {
    if constexpr (std::is_same_v<T, double>) {
      ASSERT_EQ(bits(fast[v]), bits(full[v])) << what << " v=" << v;
    } else {
      ASSERT_EQ(fast[v], full[v]) << what << " v=" << v;
    }
  }
}

class FastPathDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(FastPathDifferential, ClosedFormChargesMatchFullSteppingBitForBit) {
  const auto& [gen_name, conflicts] = GetParam();
  const CSRGraph g = gen::build_suite_graph(gen_name, kScale, 977).graph;

  sim::Runtime plain;
  const StreamRun fast = run_edge_stream(g, gen_name, conflicts, plain);
  const StreamRun full = [&] {
    test::HazardRuntime rt;
    StreamRun run = run_edge_stream(g, gen_name, conflicts, rt);
    EXPECT_GT(rt.hazards.tracked_accesses(), 0u)
        << "the shadow saw no access - the reference did not step";
    return run;
  }();

  // The stream must exercise what it claims to.
  EXPECT_GT(fast.inserts_case2, 0);
  EXPECT_GT(fast.inserts_case3, 0);
  EXPECT_GT(fast.removals_adjacent, 0);
  EXPECT_GT(fast.removals_far, 0);

  ASSERT_EQ(fast.stats.size(), full.stats.size());
  std::uint64_t conflicts_seen = 0;
  for (std::size_t i = 0; i < fast.stats.size(); ++i) {
    const auto& a = fast.stats[i];
    const auto& b = full.stats[i];
    const std::string what = "launch " + std::to_string(i);
    expect_counters_identical(a.total, b.total, what);
    EXPECT_EQ(bits(a.max_block_cycles), bits(b.max_block_cycles)) << what;
    EXPECT_EQ(bits(a.makespan_cycles), bits(b.makespan_cycles)) << what;
    EXPECT_EQ(bits(a.seconds), bits(b.seconds)) << what;
    EXPECT_EQ(a.num_blocks, b.num_blocks) << what;
    EXPECT_EQ(a.launches, b.launches) << what;
    conflicts_seen += a.total.atomic_conflicts;
  }
  ASSERT_EQ(fast.jobs.size(), full.jobs.size());
  for (std::size_t j = 0; j < fast.jobs.size(); ++j) {
    expect_counters_identical(fast.jobs[j], full.jobs[j],
                              "batch job " + std::to_string(j));
  }
  if (conflicts) {
    EXPECT_GT(conflicts_seen, 0u) << "conflict windows never hit";
  } else {
    EXPECT_EQ(conflicts_seen, 0u);
  }

  for (int si = 0; si < fast.store.num_sources(); ++si) {
    const std::string row = " row si=" + std::to_string(si);
    expect_row_identical(fast.store.dist_row(si), full.store.dist_row(si),
                         "dist" + row);
    expect_row_identical(fast.store.sigma_row(si), full.store.sigma_row(si),
                         "sigma" + row);
    expect_row_identical(fast.store.delta_row(si), full.store.delta_row(si),
                         "delta" + row);
  }
  expect_row_identical<double>(fast.store.bc(), full.store.bc(), "bc");
}

INSTANTIATE_TEST_SUITE_P(
    Suite, FastPathDifferential,
    ::testing::Combine(::testing::ValuesIn(gen::suite_names()),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_conflicts" : "_plain");
    });

}  // namespace
}  // namespace bcdyn
