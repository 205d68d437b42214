// Microbenchmarks (google-benchmark, host wall time) for the simulator's
// block-level primitives and the host-side scan utilities.
#include <benchmark/benchmark.h>

#include "micro_smoke.hpp"

#include <numeric>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/primitives.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcdyn;

const sim::DeviceSpec& spec() {
  static const sim::DeviceSpec s = sim::DeviceSpec::tesla_c2075();
  return s;
}
const sim::CostModel& cost() {
  static const sim::CostModel c;
  return c;
}

void BM_BitonicSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<VertexId> data(n);
  for (auto& v : data) v = static_cast<VertexId>(rng.next_below(1 << 20));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<VertexId> work = data;
    sim::BlockContext ctx(spec(), cost(), 0);
    state.ResumeTiming();
    sim::block_bitonic_sort(ctx, work, n);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitonicSort)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BlockExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> data(n, 1);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint32_t> work = data;
    sim::BlockContext ctx(spec(), cost(), 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim::block_exclusive_scan(ctx, work, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BlockExclusiveScan)->Arg(1024)->Arg(65536);

void BM_RemoveDuplicates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<VertexId> data(n);
  for (auto& v : data) v = static_cast<VertexId>(rng.next_below(n / 2));
  std::vector<VertexId> scratch;
  std::vector<std::uint32_t> flags;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<VertexId> work = data;
    sim::BlockContext ctx(spec(), cost(), 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        sim::block_remove_duplicates(ctx, work, n, scratch, flags));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RemoveDuplicates)->Arg(256)->Arg(4096);

void BM_HostExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> data(n, 3);
  for (auto _ : state) {
    std::vector<std::int64_t> work = data;
    benchmark::DoNotOptimize(
        util::exclusive_prefix_sum(std::span(work)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HostExclusiveScan)->Arg(1 << 16)->Arg(1 << 20);

void BM_ChargingOverhead(benchmark::State& state) {
  // Cost of the simulator's instrumentation itself: an empty charged loop.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::BlockContext ctx(spec(), cost(), 0);
    ctx.parallel_for(n, [&](std::size_t) {
      ctx.charge_instr(1);
      ctx.charge_read(2);
    });
    benchmark::DoNotOptimize(ctx.cycles());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChargingOverhead)->Arg(1 << 16);

void BM_EdgeLevelSweep(benchmark::State& state) {
  // One edge-parallel BFS level over 2^16 arcs grouped by source (8 per
  // vertex), with 1/16 of the vertices on the level: stepped through
  // parallel_for (arg 0), guarded so off-level arcs are charged in closed
  // form (arg 1), and ranged so they are not even classified (arg 2).
  constexpr std::size_t kDegree = 8;
  constexpr Dist kLevels = 16;
  constexpr Dist kDepth = 3;
  const std::size_t num_arcs = 1 << 16;
  const std::size_t n = num_arcs / kDegree;
  util::Rng rng(2);
  std::vector<Dist> d(n);
  std::vector<VertexId> src(num_arcs);
  std::vector<VertexId> dst(num_arcs);
  std::vector<sim::ItemRange> level_rows;
  for (std::size_t v = 0; v < n; ++v) {
    d[v] = static_cast<Dist>(v % kLevels);
    if (d[v] == kDepth) level_rows.push_back({v * kDegree, (v + 1) * kDegree});
  }
  for (std::size_t a = 0; a < num_arcs; ++a) {
    src[a] = static_cast<VertexId>(a / kDegree);
    dst[a] = static_cast<VertexId>(rng.next_below(n));
  }
  const auto at = [](const std::vector<VertexId>& arr, std::size_t a) {
    return static_cast<std::size_t>(arr[a]);
  };
  const auto mode = state.range(0);
  for (auto _ : state) {
    sim::BlockContext ctx(spec(), cost(), 0);
    const sim::FutileCost exits[] = {ctx.futile_cost(2, {1, 1, 1}),
                                     ctx.futile_cost(2, {1, 1, 1, 1})};
    const auto exit = [&](std::size_t a) {
      if (d[at(src, a)] != kDepth) return 1;
      return d[at(dst, a)] != kDepth + 1 ? 2 : 0;
    };
    const auto body = [&](std::size_t a) {
      ctx.charge_instr(2);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(d, at(src, a));
      if (d[at(src, a)] != kDepth) return;
      ctx.charge_read(d, at(dst, a));
      if (d[at(dst, a)] != kDepth + 1) return;
      ctx.charge_atomic(d, at(dst, a));
    };
    if (mode == 0) {
      ctx.parallel_for(num_arcs, body);
    } else if (mode == 1) {
      ctx.parallel_for_guarded(num_arcs, exits, exit, body);
    } else {
      ctx.parallel_for_ranged(num_arcs, level_rows, exits, exit, body);
    }
    benchmark::DoNotOptimize(ctx.cycles());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(num_arcs));
}
BENCHMARK(BM_EdgeLevelSweep)->ArgName("guard")->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  return bcdyn::bench::micro_main(argc, argv);
}
