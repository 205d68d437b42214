// Microbenchmarks (google-benchmark, host wall time) for the graph
// substrate and the sequential BC building blocks.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "micro_smoke.hpp"

#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/dynamic_graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcdyn;

const CSRGraph& test_graph() {
  static const CSRGraph g = gen::small_world(20000, 5, 0.1, 7);
  return g;
}

void BM_CsrFromCoo(benchmark::State& state) {
  const COOGraph coo = test_graph().to_coo();
  for (auto _ : state) {
    COOGraph copy = coo;
    benchmark::DoNotOptimize(CSRGraph::from_coo(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(coo.num_edges()));
}
BENCHMARK(BM_CsrFromCoo);

void BM_Bfs(benchmark::State& state) {
  const auto& g = test_graph();
  VertexId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs(g, s));
    s = (s + 97) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_arcs());
}
BENCHMARK(BM_Bfs);

void BM_BrandesSource(benchmark::State& state) {
  const auto& g = test_graph();
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<Dist> dist(n);
  std::vector<Sigma> sigma(n);
  std::vector<double> delta(n);
  VertexId s = 0;
  for (auto _ : state) {
    brandes_source(g, s, dist, sigma, delta, {});
    benchmark::DoNotOptimize(delta.data());
    s = (s + 211) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_arcs());
}
BENCHMARK(BM_BrandesSource);

void BM_DynamicGraphInsert(benchmark::State& state) {
  util::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    DynamicGraph g(10000);
    state.ResumeTiming();
    for (int i = 0; i < 20000; ++i) {
      g.insert_edge(static_cast<VertexId>(rng.next_below(10000)),
                    static_cast<VertexId>(rng.next_below(10000)));
    }
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20000);
}
BENCHMARK(BM_DynamicGraphInsert);

void BM_DynamicGraphSnapshot(benchmark::State& state) {
  const DynamicGraph g = DynamicGraph::from_csr(test_graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.snapshot_csr());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_arcs());
}
BENCHMARK(BM_DynamicGraphSnapshot);

/// `count` distinct edges drawn from the test graph: absent ones when
/// `present` is false, existing ones otherwise.
std::vector<std::pair<VertexId, VertexId>> sample_edges(const CSRGraph& g,
                                                        bool present,
                                                        int count) {
  util::Rng rng(11);
  CSRGraph scratch = g;
  std::vector<std::pair<VertexId, VertexId>> edges;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  while (static_cast<int>(edges.size()) < count) {
    VertexId u = 0;
    VertexId v = 0;
    if (present) {
      const auto a = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(scratch.num_arcs())));
      u = scratch.arc_src()[a];
      v = scratch.arc_dst()[a];
    } else {
      u = static_cast<VertexId>(rng.next_below(n));
      v = static_cast<VertexId>(rng.next_below(n));
    }
    // Editing the scratch copy keeps the sample free of repeats.
    const bool fresh =
        present ? scratch.remove_edge(u, v) : scratch.insert_edge(u, v);
    if (fresh) edges.emplace_back(u, v);
  }
  return edges;
}

/// One in-place CSRGraph edit per iteration (the DynamicBc structure
/// phase); the graph is reset, untimed, once the sampled edges run out.
template <bool kInsert>
void BM_CsrEdit(benchmark::State& state) {
  constexpr int kEdges = 256;
  const auto edges = sample_edges(test_graph(), /*present=*/!kInsert, kEdges);
  CSRGraph g = test_graph();
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == edges.size()) {
      state.PauseTiming();
      g = test_graph();
      next = 0;
      state.ResumeTiming();
    }
    const auto [u, v] = edges[next++];
    const bool applied = kInsert ? g.insert_edge(u, v) : g.remove_edge(u, v);
    benchmark::DoNotOptimize(applied);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_CsrInsertEdge(benchmark::State& state) { BM_CsrEdit<true>(state); }
BENCHMARK(BM_CsrInsertEdge);

void BM_CsrRemoveEdge(benchmark::State& state) { BM_CsrEdit<false>(state); }
BENCHMARK(BM_CsrRemoveEdge);

void BM_DynamicCpuUpdate(benchmark::State& state) {
  // One full insertion update (all sources) on the small-world graph.
  const auto& g0 = test_graph();
  ApproxConfig cfg{.num_sources = 16, .seed = 2};
  BcStore store(g0.num_vertices(), cfg);
  brandes_all(g0, store);
  DynamicCpuEngine engine(g0.num_vertices());
  util::Rng rng(5);
  CSRGraph g = g0;
  for (auto _ : state) {
    state.PauseTiming();
    VertexId u = 0;
    VertexId v = 0;
    do {
      u = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(g.num_vertices())));
      v = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(g.num_vertices())));
    } while (u == v || g.has_edge(u, v));
    g = g.with_edge(u, v);
    state.ResumeTiming();
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.update_source(g, store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          store.num_sources());
}
BENCHMARK(BM_DynamicCpuUpdate);

}  // namespace

int main(int argc, char** argv) {
  return bcdyn::bench::micro_main(argc, argv);
}
