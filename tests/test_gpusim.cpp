// The GPU execution-model simulator: block context charging, round
// accounting, scheduling makespan, and device launch semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <optional>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "test_helpers.hpp"

namespace bcdyn::sim {
namespace {

DeviceSpec tiny_spec(int sms = 2, int threads = 4) {
  DeviceSpec s;
  s.name = "tiny";
  s.num_sms = sms;
  s.threads_per_block = threads;
  s.clock_ghz = 1.0;
  return s;
}

TEST(BlockContext, RoundCountMatchesCeilDivision) {
  const CostModel cm;
  const auto spec = tiny_spec(1, 4);
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(10, [&](std::size_t) {});
  // 10 items over 4 threads = 3 rounds (4+4+2).
  EXPECT_EQ(ctx.counters().rounds, 3u);
  EXPECT_EQ(ctx.counters().items, 10u);
  EXPECT_EQ(ctx.counters().barriers, 1u);  // implicit trailing barrier
}

TEST(BlockContext, EmptyLoopStillCostsARoundAndBarrier) {
  const CostModel cm;
  const auto spec = tiny_spec();
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
  EXPECT_EQ(ctx.counters().rounds, 1u);
  EXPECT_EQ(ctx.counters().items, 0u);
  EXPECT_EQ(ctx.counters().barriers, 1u);
  // The exact cost of an empty launch, pinned deliberately: every thread
  // still issues the zero-trip bounds check of its grid-stride loop (one
  // round of issue overhead) and joins the trailing __syncthreads(). An
  // empty launch is not free on hardware either - this is intended
  // behaviour, not an accounting bug.
  EXPECT_DOUBLE_EQ(ctx.cycles(), cm.round_issue_cycles + cm.barrier_cycles);
}

TEST(BlockContext, RoundCostIsMaxOfItemCosts) {
  CostModel cm;
  cm.round_issue_cycles = 0.0;
  cm.barrier_cycles = 0.0;
  cm.global_read_cycles = 10.0;
  cm.read_throughput_cycles = 0.0;
  const auto spec = tiny_spec(1, 4);
  // One round of 4 items; one item does 5 reads, others 1: cost = 50, not 80.
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(4, [&](std::size_t i) { ctx.charge_read(i == 2 ? 5 : 1); });
  EXPECT_DOUBLE_EQ(ctx.cycles(), 50.0);
  EXPECT_EQ(ctx.counters().global_reads, 8u);
}

TEST(BlockContext, DivergenceAcrossRoundsAccumulates) {
  CostModel cm;
  cm.round_issue_cycles = 1.0;
  cm.barrier_cycles = 0.0;
  cm.instr_cycles = 1.0;
  cm.read_throughput_cycles = 0.0;
  const auto spec = tiny_spec(1, 2);
  BlockContext ctx(spec, cm, 0);
  // Items costs: round0 {3, 1} -> 3, round1 {2, 7} -> 7. Total 2+3+7 = 12.
  const int costs[] = {3, 1, 2, 7};
  ctx.parallel_for(4, [&](std::size_t i) {
    ctx.charge_instr(static_cast<std::size_t>(costs[i]));
  });
  EXPECT_DOUBLE_EQ(ctx.cycles(), 12.0);
}

TEST(BlockContext, AtomicConflictTrackingDetectsSameAddress) {
  CostModel cm;
  const auto spec = tiny_spec(1, 8);
  BlockContext tracked(spec, cm, 0, /*track_atomic_conflicts=*/true);
  tracked.parallel_for(8, [&](std::size_t) { tracked.charge_atomic(42); });
  EXPECT_EQ(tracked.counters().atomic_conflicts, 7u);

  BlockContext spread(spec, cm, 0, true);
  spread.parallel_for(8, [&](std::size_t i) { spread.charge_atomic(i); });
  EXPECT_EQ(spread.counters().atomic_conflicts, 0u);

  // Conflict window resets at round boundaries.
  const auto narrow = tiny_spec(1, 2);
  BlockContext rounds(narrow, cm, 0, true);
  rounds.parallel_for(4, [&](std::size_t) { rounds.charge_atomic(7); });
  EXPECT_EQ(rounds.counters().atomic_conflicts, 2u);  // one per round
}

TEST(BlockContext, ThroughputTermChargesAggregateRoundTraffic) {
  CostModel cm;
  cm.round_issue_cycles = 0.0;
  cm.barrier_cycles = 0.0;
  cm.global_read_cycles = 0.0;  // isolate the throughput term
  cm.read_throughput_cycles = 0.5;
  const auto spec = tiny_spec(1, 4);
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(4, [&](std::size_t) { ctx.charge_read(10); });
  // 40 reads in one round at 0.5 cycles each.
  EXPECT_DOUBLE_EQ(ctx.cycles(), 20.0);
}

// --- guarded sweeps --------------------------------------------------------
// parallel_for_guarded/_ranged charge early-out items in closed form; every
// counter and the modeled cycles must stay bit-equal to stepping the same
// body through parallel_for.

/// A synthetic sweep whose item i takes early-out cat[i] (0: runs to the
/// end). Stepped items relabel a later item, so an item must be classified
/// at the moment it would run.
struct SyntheticSweep {
  std::vector<int> cat;
  std::vector<double> out = std::vector<double>(cat.size(), 0.0);
  std::size_t classified = 0;

  void body(BlockContext& ctx, std::size_t i) {
    ctx.charge_instr(3);
    ctx.charge_read(1);
    if (cat[i] == 1) return;
    ctx.charge_read(2);
    if (cat[i] == 2) return;
    ctx.charge_read(1);
    ctx.charge_read(1);
    if (cat[i] == 3) return;
    ctx.charge_read(3);
    if (cat[i] == 4) return;
    ctx.charge_write(1);
    ctx.charge_atomic(i / 3 % 4);  // shared keys: conflicts within a warp
    out[i] += 1.0;
    const std::size_t j = (i * 7 + 3) % cat.size();
    if (j > i && cat[j] != 1) cat[j] = cat[j] == 0 ? 3 : 0;
  }
  int exit(std::size_t i) {
    ++classified;
    return cat[i];
  }
};

CostModel fractional_costs() {
  CostModel cm;  // non-integral, so the summation order shows in the bits
  cm.instr_cycles = 0.7;
  cm.global_read_cycles = 1.3;
  cm.round_issue_cycles = 2.9;
  return cm;
}

DeviceSpec warp_spec() {
  DeviceSpec s = tiny_spec(1, 8);
  s.warp_size = 4;  // two warps per round
  return s;
}

std::vector<int> mixed_categories(std::size_t n) {
  std::vector<int> cat(n);
  for (std::size_t i = 0; i < n; ++i) cat[i] = static_cast<int>((i * 5 + i / 7) % 5);
  return cat;
}

void expect_same_counters(const BlockCounters& a, const BlockCounters& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.instrs, b.instrs);
  EXPECT_EQ(a.global_reads, b.global_reads);
  EXPECT_EQ(a.global_writes, b.global_writes);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.atomic_conflicts, b.atomic_conflicts);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cycles),
            std::bit_cast<std::uint64_t>(b.cycles))
      << a.cycles << " vs " << b.cycles;
}

/// Runs `cat` through parallel_for and through the guarded variant (ranged
/// when `ranges` is set), optionally after one sequential atomic on
/// `pre_key`; expects identical counters and state. Both blocks run on
/// `rt`. Returns the guarded sweep for further checks.
SyntheticSweep expect_guarded_matches_plain(
    const std::vector<int>& cat,
    const std::optional<std::vector<ItemRange>>& ranges = std::nullopt,
    bool conflicts = false, std::optional<std::uint64_t> pre_key = {},
    sim::Runtime& rt = sim::Runtime::process()) {
  const CostModel cm = fractional_costs();
  const DeviceSpec spec = warp_spec();
  BlockContext plain(spec, cm, 0, conflicts, rt);
  BlockContext guarded(spec, cm, 0, conflicts, rt);
  if (pre_key) {
    plain.charge_atomic(*pre_key);
    guarded.charge_atomic(*pre_key);
  }
  SyntheticSweep a{cat};
  SyntheticSweep b{cat};
  plain.parallel_for(cat.size(), [&](std::size_t i) { a.body(plain, i); });

  const FutileCost exits[] = {
      guarded.futile_cost(3, {1}), guarded.futile_cost(3, {1, 2}),
      guarded.futile_cost(3, {1, 2, 1, 1}),
      guarded.futile_cost(3, {1, 2, 1, 1, 3})};
  auto exit = [&](std::size_t i) { return b.exit(i); };
  auto fn = [&](std::size_t i) { b.body(guarded, i); };
  if (ranges) {
    guarded.parallel_for_ranged(cat.size(), *ranges, exits, exit, fn);
  } else {
    guarded.parallel_for_guarded(cat.size(), exits, exit, fn);
  }
  expect_same_counters(guarded.counters(), plain.counters());
  EXPECT_EQ(b.cat, a.cat);
  EXPECT_EQ(b.out, a.out);
  return b;
}

TEST(GuardedSweep, EmptyLaunchIsTheEmptyRound) {
  const auto b = expect_guarded_matches_plain({});
  EXPECT_EQ(b.classified, 0u);
  expect_guarded_matches_plain({}, std::vector<ItemRange>{});
}

TEST(GuardedSweep, PartialAndWholeRoundsMatchStepping) {
  expect_guarded_matches_plain(mixed_categories(5));   // n < T
  expect_guarded_matches_plain(mixed_categories(24));  // n = 3T
  expect_guarded_matches_plain(mixed_categories(29));  // ragged tail
}

TEST(GuardedSweep, EveryExitIndexIsTakenAndCharged) {
  const auto b = expect_guarded_matches_plain(mixed_categories(40));
  for (int k = 0; k <= 4; ++k) {
    EXPECT_NE(std::count(b.cat.begin(), b.cat.end(), k), 0) << "exit " << k;
  }
  EXPECT_EQ(b.classified, 40u);
}

TEST(GuardedSweep, RoundsOfOnlyExitsCloseInClosedForm) {
  std::vector<int> cat = mixed_categories(29);
  for (std::size_t i = 0; i < 16; ++i) cat[i] = 1 + static_cast<int>(i % 4);
  expect_guarded_matches_plain(cat);
  expect_guarded_matches_plain(std::vector<int>(24, 2));  // nothing steps
}

TEST(GuardedSweep, RangesStraddleRoundsAndSkipOutsideItems) {
  // T = 8: [5, 13) and [20, 27) cross round boundaries; the empty ranges
  // sit on, between and before them.
  const std::vector<ItemRange> ranges = {{0, 0},   {3, 3},   {5, 13},
                                         {13, 13}, {16, 16}, {20, 27}};
  std::vector<int> cat = mixed_categories(29);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < cat.size(); ++i) {
    const bool in = std::any_of(ranges.begin(), ranges.end(), [&](auto r) {
      return r.begin <= i && i < r.end;
    });
    if (in) {
      ++inside;
    } else {
      cat[i] = 1;  // the contract: items outside the ranges take exit 1
    }
  }
  const auto b = expect_guarded_matches_plain(cat, ranges);
  EXPECT_EQ(b.classified, inside);
  EXPECT_EQ(expect_guarded_matches_plain(std::vector<int>(20, 1),
                                         std::vector<ItemRange>{})
                .classified,
            0u);
}

TEST(GuardedSweep, ConflictWindowsFollowWarpsAcrossExits) {
  // Conflicts are counted within a warp (4 items) only; exits in between
  // stepped items advance the warp position without issuing atomics.
  expect_guarded_matches_plain(mixed_categories(40), std::nullopt, true);
  std::vector<int> sparse(32, 1);
  for (std::size_t i : {0, 2, 3, 5, 6, 8, 11, 12, 13, 17, 22, 23, 30}) {
    sparse[i] = 0;
  }
  expect_guarded_matches_plain(sparse, std::nullopt, true);
  // The first warp's window is open at the sweep's start: an atomic issued
  // outside any item still conflicts with warp 0 of the first round.
  expect_guarded_matches_plain(sparse, std::nullopt, true, 0);
  std::vector<int> ranged = sparse;
  for (std::size_t i = 0; i < ranged.size(); ++i) {
    if (i < 2 || i >= 14) ranged[i] = 1;
  }
  expect_guarded_matches_plain(ranged, std::vector<ItemRange>{{2, 14}}, true,
                               0);
}

TEST(GuardedSweep, HazardShadowStepsEveryItem) {
  test::HazardRuntime rt;
  const auto b = expect_guarded_matches_plain(mixed_categories(29),
                                              std::nullopt, false, {}, rt);
  EXPECT_EQ(b.classified, 0u);  // plain stepping: no classification
}

TEST(ConflictWindow, GrowsPastItsInitialCapacity) {
  // One warp-sized round whose single item issues 500 atomics on 250 keys:
  // the flat window must rehash without losing an address.
  CostModel cm;
  const auto spec = tiny_spec(1, 1);
  BlockContext ctx(spec, cm, 0, /*track_atomic_conflicts=*/true);
  ctx.parallel_for(1, [&](std::size_t) {
    for (std::uint64_t k = 0; k < 500; ++k) ctx.charge_atomic(k % 250);
  });
  EXPECT_EQ(ctx.counters().atomic_conflicts, 250u);
}

TEST(ScheduleMakespan, PerfectDivisionIsFlat) {
  // 4 equal blocks on 2 SMs: makespan = 2 blocks' worth per SM.
  const std::vector<double> blocks(4, 100.0);
  EXPECT_DOUBLE_EQ(schedule_makespan(blocks, 2, 0.0), 200.0);
  EXPECT_DOUBLE_EQ(schedule_makespan(blocks, 4, 0.0), 100.0);
  // More SMs than blocks doesn't help further.
  EXPECT_DOUBLE_EQ(schedule_makespan(blocks, 8, 0.0), 100.0);
}

TEST(ScheduleMakespan, GreedyBalancesUnevenBlocks) {
  const std::vector<double> blocks = {100, 10, 10, 10, 10, 10};
  // Greedy: SM0 takes 100; SM1 takes the five 10s = 50. Makespan 100.
  EXPECT_DOUBLE_EQ(schedule_makespan(blocks, 2, 0.0), 100.0);
}

TEST(ScheduleMakespan, DispatchOverheadCharged) {
  const std::vector<double> blocks = {5.0, 5.0};
  EXPECT_DOUBLE_EQ(schedule_makespan(blocks, 1, 2.0), 14.0);
}

TEST(Device, LaunchAggregatesBlockCounters) {
  Device dev(tiny_spec(2, 4));
  const auto stats = dev.launch(3, [](BlockContext& ctx) {
    ctx.parallel_for(4, [&](std::size_t) { ctx.charge_read(1); });
  });
  EXPECT_EQ(stats.num_blocks, 3);
  EXPECT_EQ(stats.total.global_reads, 12u);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.makespan_cycles, 0.0);
}

TEST(Device, BlockIdsCoverRange) {
  Device dev(tiny_spec(2, 4));
  std::vector<int> seen(5, 0);
  dev.launch(5, [&](BlockContext& ctx) { seen[static_cast<std::size_t>(ctx.block_id())]++; });
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Device, AccumulatedStatsSumLaunches) {
  Device dev(tiny_spec());
  const auto kernel = [](BlockContext& ctx) {
    ctx.parallel_for(8, [&](std::size_t) { ctx.charge_write(1); });
  };
  dev.launch(2, kernel);
  dev.launch(2, kernel);
  EXPECT_EQ(dev.accumulated().total.global_writes, 32u);
  dev.reset_accumulated();
  EXPECT_EQ(dev.accumulated().total.global_writes, 0u);
}

TEST(KernelStats, SequentialCompositionSumsAndMaxes) {
  KernelStats a;
  a.num_blocks = 3;
  a.launches = 1;
  a.makespan_cycles = 100.0;
  a.seconds = 0.5;
  a.max_block_cycles = 40.0;
  a.total.global_reads = 7;
  KernelStats b;
  b.num_blocks = 5;
  b.launches = 2;
  b.makespan_cycles = 50.0;
  b.seconds = 0.25;
  b.max_block_cycles = 90.0;
  b.total.global_reads = 3;

  a += b;
  EXPECT_EQ(a.num_blocks, 8);        // blocks sum across launches
  EXPECT_EQ(a.launches, 3);
  EXPECT_DOUBLE_EQ(a.makespan_cycles, 150.0);
  EXPECT_DOUBLE_EQ(a.seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.max_block_cycles, 90.0);  // max-of-max, not a sum
  EXPECT_EQ(a.total.global_reads, 10u);

  const std::string s = a.to_string();
  EXPECT_NE(s.find("launches=3"), std::string::npos);
  EXPECT_NE(s.find("blocks=8"), std::string::npos);
}

TEST(KernelStats, DeviceAccumulationMatchesManualComposition) {
  Device dev(tiny_spec(2, 4));
  KernelStats manual = dev.launch(2, [](BlockContext& ctx) {
    ctx.parallel_for(4, [&](std::size_t) { ctx.charge_read(1); });
  });
  manual += dev.launch(3, [](BlockContext& ctx) {
    ctx.parallel_for(16, [&](std::size_t) { ctx.charge_write(2); });
  });
  EXPECT_EQ(dev.accumulated().num_blocks, 5);
  EXPECT_EQ(dev.accumulated().launches, 2);
  EXPECT_DOUBLE_EQ(dev.accumulated().max_block_cycles,
                   manual.max_block_cycles);
  EXPECT_DOUBLE_EQ(dev.accumulated().makespan_cycles,
                   manual.makespan_cycles);
  EXPECT_EQ(dev.accumulated().total.global_writes,
            manual.total.global_writes);
}

TEST(Device, LaunchQueueAggregatesAndReportsPerJobStats) {
  Device dev(tiny_spec(2, 4));
  std::vector<BlockCounters> per_job;
  const auto stats = dev.launch_queue(
      5,
      [](BlockContext& ctx, int job) {
        ctx.parallel_for(static_cast<std::size_t>(job) + 1,
                         [&](std::size_t) { ctx.charge_read(1); });
      },
      &per_job);
  // Lanes = min(num_sms, num_jobs) = 2 persistent blocks.
  EXPECT_EQ(stats.num_blocks, 2);
  ASSERT_EQ(per_job.size(), 5u);
  std::uint64_t reads = 0;
  double cycles = 0.0;
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(per_job[static_cast<std::size_t>(j)].global_reads,
              static_cast<std::uint64_t>(j) + 1);
    reads += per_job[static_cast<std::size_t>(j)].global_reads;
    cycles += per_job[static_cast<std::size_t>(j)].cycles;
  }
  EXPECT_EQ(stats.total.global_reads, reads);
  EXPECT_DOUBLE_EQ(stats.total.cycles, cycles);
  EXPECT_GT(stats.makespan_cycles, 0.0);
}

TEST(Device, LaunchQueuePaysOneLaunchOverhead) {
  CostModel cm;
  const auto noop = [](BlockContext&, int) {};
  Device dev(tiny_spec(2, 4), cm);
  const auto one = dev.launch_queue(1, noop);
  const auto many = dev.launch_queue(8, noop);
  // Zero-cost jobs: makespan is launch + dispatch (+ per-job pops), so 8
  // jobs through one queue launch cost far less than 8 separate launches.
  EXPECT_LT(many.makespan_cycles, 8.0 * one.makespan_cycles);
  EXPECT_GE(many.makespan_cycles,
            cm.kernel_launch_cycles + cm.block_dispatch_cycles);
}

TEST(Device, LaunchQueueBeatsPerJobLaunchesOnImbalancedJobs) {
  // 4 jobs on 2 SMs: one heavy job plus three light ones. One queue launch
  // pays the kernel-launch overhead once and overlaps the light jobs with
  // the heavy one; per-job launches pay the overhead four times and never
  // overlap jobs.
  const auto work = [](BlockContext& ctx, int job) {
    const std::size_t items = job == 0 ? 300 : 10;
    ctx.parallel_for(items, [&](std::size_t) { ctx.charge_read(1); });
  };
  Device queue_dev(tiny_spec(2, 4));
  const auto queued = queue_dev.launch_queue(4, work);
  Device launch_dev(tiny_spec(2, 4));
  double per_job = 0.0;
  for (int j = 0; j < 4; ++j) {
    per_job += launch_dev
                   .launch(1, [&](BlockContext& ctx) { work(ctx, j); })
                   .makespan_cycles;
  }
  EXPECT_LT(queued.makespan_cycles, per_job);
  // And the work itself is identical either way.
  EXPECT_EQ(queued.total.global_reads,
            launch_dev.accumulated().total.global_reads);
}

TEST(Device, StridedLaunchRunsJobsInJobOrderAndModelsTheBlockLoop) {
  // Job j lands on block j % 3, so the schedule is the block-loop
  // launch()'s bit for bit, but the host visits the jobs in job order.
  const auto work = [](BlockContext& ctx, int job) {
    ctx.parallel_for(10 + static_cast<std::size_t>(job) * 13,
                     [&](std::size_t) { ctx.charge_read(2); });
  };
  Device loop_dev(tiny_spec(2, 4));
  const auto loop = loop_dev.launch(3, [&](BlockContext& ctx) {
    for (int j = ctx.block_id(); j < 8; j += 3) work(ctx, j);
  });
  Device strided_dev(tiny_spec(2, 4));
  std::vector<int> seen;
  const auto strided = strided_dev.launch_strided(
      3, 8, [&](BlockContext& ctx, int job) {
        EXPECT_EQ(ctx.block_id(), job % 3);
        seen.push_back(job);
        work(ctx, job);
      });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(strided.num_blocks, loop.num_blocks);
  EXPECT_EQ(strided.total.global_reads, loop.total.global_reads);
  EXPECT_EQ(strided.max_block_cycles, loop.max_block_cycles);
  EXPECT_EQ(strided.makespan_cycles, loop.makespan_cycles);
}

TEST(Device, OrderedQueueSchedulesInQueueOrderButRunsInJobOrder) {
  const auto work = [](BlockContext& ctx, int job) {
    ctx.parallel_for(5 + static_cast<std::size_t>(job) * 11,
                     [&](std::size_t) { ctx.charge_read(1); });
  };
  const std::vector<int> queue = {3, 0, 4, 1, 2};
  Device ordered_dev(tiny_spec(2, 4));
  std::vector<int> seen;
  std::vector<BlockCounters> per_job;
  const auto ordered = ordered_dev.launch_queue(
      queue,
      [&](BlockContext& ctx, int job) {
        seen.push_back(job);
        work(ctx, job);
      },
      &per_job);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  // Same schedule as a plain queue whose position p runs job queue[p].
  Device plain_dev(tiny_spec(2, 4));
  std::vector<BlockCounters> plain_per_job;
  const auto plain = plain_dev.launch_queue(
      5,
      [&](BlockContext& ctx, int p) {
        work(ctx, queue[static_cast<std::size_t>(p)]);
      },
      &plain_per_job);
  EXPECT_EQ(ordered.makespan_cycles, plain.makespan_cycles);
  ASSERT_EQ(per_job.size(), plain_per_job.size());
  for (std::size_t p = 0; p < per_job.size(); ++p) {
    EXPECT_EQ(per_job[p].global_reads, plain_per_job[p].global_reads) << p;
  }
}

TEST(CostModel, CpuSecondsLinearInOps) {
  CostModel cm;
  const double t1 = cpu_seconds(cm, 1000, 0, 0);
  const double t2 = cpu_seconds(cm, 2000, 0, 0);
  EXPECT_DOUBLE_EQ(t2, 2.0 * t1);
  EXPECT_GT(cpu_seconds(cm, 0, 100, 0), 0.0);
  EXPECT_GT(cpu_seconds(cm, 0, 0, 100), 0.0);
}

TEST(DeviceSpec, PaperHardwarePresets) {
  EXPECT_EQ(DeviceSpec::tesla_c2075().num_sms, 14);
  EXPECT_EQ(DeviceSpec::gtx_560().num_sms, 7);
  EXPECT_EQ(DeviceSpec::tesla_c2075().threads_per_block, 1024);
}

}  // namespace
}  // namespace bcdyn::sim
