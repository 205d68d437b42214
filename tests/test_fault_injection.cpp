// Chaos suite for deterministic fault injection (gpusim/fault_injector.hpp)
// and the bc recovery layer (bc/recovery.hpp).
//
// The load-bearing claims under test:
//   * every injection decision is a pure hash of (seed, site, sequence
//     index) - the same plan replays a byte-identical fault sequence;
//   * every fault site fires before analytic state is mutated, so a
//     recovered run's scores are bit-identical (==, not near) to a
//     fault-free run of the same workload, on every engine and device
//     count, including across device loss and resharding;
//   * retry exhaustion and the static-recompute fallback take the
//     documented error paths;
//   * the suite runs under ASan/UBSan via the `asan-chaos` preset.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"
#include "bc/recovery.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/stream.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"

namespace bcdyn {
namespace {

using test::FaultRuntime;

void expect_bit_identical(std::span<const double> actual,
                          std::span<const double> expected,
                          const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << what << " differs at vertex " << i;
  }
}

std::vector<std::string> record_strings(const sim::FaultInjector& injector) {
  std::vector<std::string> out;
  for (const auto& rec : injector.records()) {
    out.push_back(rec.to_string());
  }
  return out;
}

// --- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesSeedWithDefaultRate) {
  const sim::FaultPlan plan = sim::FaultPlan::parse("42");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.transfer_fail_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.stall_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.kernel_abort_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.device_loss_rate, 0.02 / 16.0);
}

TEST(FaultPlan, ParsesExplicitRate) {
  const sim::FaultPlan plan = sim::FaultPlan::parse("7:0.5");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.kernel_abort_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.device_loss_rate, 0.5 / 16.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad : {"", "x", "1x", ":0.5", "7:", "7:abc", "7:1.5",
                          "7:-0.1", "7:0.5z"}) {
    EXPECT_THROW(sim::FaultPlan::parse(bad), std::invalid_argument)
        << "spec '" << bad << "' should not parse";
  }
}

// --- decision hashing -----------------------------------------------------

TEST(FaultInjector, SameSeedReplaysByteIdenticalDecisions) {
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.kernel_abort_rate = 0.3;
  std::vector<std::uint64_t> first;
  {
    FaultRuntime rt(plan);
    for (int i = 0; i < 64; ++i) {
      sim::FaultRecord fired;
      if (rt.faults.should_abort_launch("dev.launch.k", &fired)) {
        first.push_back(fired.seq);
      }
    }
  }
  ASSERT_FALSE(first.empty()) << "rate 0.3 over 64 decisions fired nothing";
  ASSERT_LT(first.size(), 64u) << "rate 0.3 fired every decision";
  std::vector<std::uint64_t> second;
  {
    FaultRuntime rt(plan);
    for (int i = 0; i < 64; ++i) {
      sim::FaultRecord fired;
      if (rt.faults.should_abort_launch("dev.launch.k", &fired)) {
        second.push_back(fired.seq);
      }
    }
  }
  EXPECT_EQ(first, second);
}

TEST(FaultInjector, SitesDecideIndependently) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.kernel_abort_rate = 0.25;
  const auto fired_at = [&plan](std::string_view site, bool interleave) {
    FaultRuntime rt(plan);
    std::vector<std::uint64_t> fired;
    for (int i = 0; i < 48; ++i) {
      sim::FaultRecord rec;
      if (rt.faults.should_abort_launch(site, &rec)) {
        fired.push_back(rec.seq);
      }
      if (interleave) rt.faults.should_abort_launch("other.site");
    }
    return fired;
  };
  const std::vector<std::uint64_t> alone = fired_at("dev.launch.k", false);
  const std::vector<std::uint64_t> interleaved =
      fired_at("dev.launch.k", true);
  // A site's decision stream depends only on its own poll count, never on
  // how often other sites were polled in between.
  EXPECT_EQ(alone, interleaved);
}

TEST(FaultInjector, SiteFilterOnlySuppressesNonMatchingSites) {
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.kernel_abort_rate = 0.5;
  const auto fired_seqs = [](sim::FaultInjector& injector,
                              std::string_view site) {
    std::vector<std::uint64_t> fired;
    for (int i = 0; i < 32; ++i) {
      sim::FaultRecord rec;
      if (injector.should_abort_launch(site, &rec)) {
        fired.push_back(rec.seq);
      }
    }
    return fired;
  };
  std::vector<std::uint64_t> unfiltered;
  {
    FaultRuntime rt(plan);
    unfiltered = fired_seqs(rt.faults, "a.launch.k");
  }
  ASSERT_FALSE(unfiltered.empty());
  plan.site_filter = "a.launch";
  {
    FaultRuntime rt(plan);
    // Non-matching sites never fire; matching sites decide exactly as the
    // filterless plan did (the filter gates firing, not the hash).
    EXPECT_TRUE(fired_seqs(rt.faults, "b.launch.k").empty());
    EXPECT_EQ(fired_seqs(rt.faults, "a.launch.k"), unfiltered);
  }
}

// --- per-kind fault sites -------------------------------------------------

TEST(FaultSites, TransferFailureThrowsWithSiteAndKind) {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.transfer_fail_rate = 1.0;
  FaultRuntime rt(plan);
  sim::Device dev(sim::DeviceSpec::tesla_c2075(), {}, false, rt);
  sim::Stream stream(dev, "chaos");
  try {
    stream.memcpy_h2d(1 << 20, "chaos.upload");
    FAIL() << "transfer at rate 1.0 did not fail";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.record().kind, sim::FaultKind::kTransferFail);
    EXPECT_EQ(e.record().site, "dev.h2d");
    EXPECT_EQ(e.record().seq, 0u);
  }
  EXPECT_EQ(rt.faults.injected(sim::FaultKind::kTransferFail), 1u);
}

TEST(FaultSites, StallShiftsTransferCompletionByPlanCycles) {
  const auto transfer_end = [](bool faulty) {
    sim::FaultPlan plan;
    plan.seed = 3;
    plan.stall_rate = faulty ? 1.0 : 0.0;
    plan.stall_cycles = 12345.0;
    FaultRuntime rt(plan);
    sim::Device dev(sim::DeviceSpec::tesla_c2075(), {}, false, rt);
    sim::Stream stream(dev, "chaos");
    return stream.memcpy_h2d(1 << 16, "chaos.upload").end_cycles;
  };
  const double clean = transfer_end(false);
  const double stalled = transfer_end(true);
  EXPECT_DOUBLE_EQ(stalled - clean, 12345.0);
}

TEST(FaultSites, LaunchAbortFiresBeforeAnyExecution) {
  sim::FaultPlan plan;
  plan.seed = 21;
  plan.kernel_abort_rate = 1.0;
  FaultRuntime rt(plan);
  sim::Device dev(sim::DeviceSpec::tesla_c2075(), {}, false, rt);
  bool ran = false;
  try {
    dev.launch(2, [&](sim::BlockContext&) { ran = true; }, "chaos_kernel");
    FAIL() << "launch at abort rate 1.0 did not abort";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.record().kind, sim::FaultKind::kKernelAbort);
    EXPECT_EQ(e.record().site, "dev.launch.chaos_kernel");
  }
  EXPECT_FALSE(ran) << "aborted launch still executed a block";
}

TEST(FaultSites, DeviceLossReshardsOntoSurvivors) {
  sim::FaultPlan plan;
  plan.seed = 8;
  plan.device_loss_rate = 1.0;
  plan.site_filter = "dev0.loss";
  FaultRuntime rt(plan);
  sim::DeviceGroup group(2, sim::DeviceSpec::tesla_c2075(), {}, false, rt);
  const std::vector<int> shard = {0, 1, 0, 1};
  std::vector<int> executed;
  const auto result = group.launch_sharded(
      4, shard, {},
      [&](sim::BlockContext&, int job) { executed.push_back(job); }, nullptr,
      "chaos_shard");
  EXPECT_TRUE(group.device_lost(0));
  EXPECT_FALSE(group.device_lost(1));
  EXPECT_EQ(group.num_alive(), 1);
  EXPECT_EQ(result.lost_devices, 1);
  EXPECT_EQ(result.resharded_jobs, 2);
  // Host execution stays in job-id order, and every placement lands on the
  // survivor.
  EXPECT_EQ(executed, (std::vector<int>{0, 1, 2, 3}));
  for (const auto& p : result.placements) EXPECT_EQ(p.device, 1);
  // The loss is permanent: the next launch reshards without a new loss.
  std::vector<int> again;
  const auto result2 = group.launch_sharded(
      4, shard, {}, [&](sim::BlockContext&, int job) { again.push_back(job); },
      nullptr, "chaos_shard");
  EXPECT_EQ(result2.lost_devices, 0);
  EXPECT_EQ(result2.resharded_jobs, 2);
  EXPECT_EQ(again, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FaultSites, AllDevicesLostThrows) {
  sim::FaultPlan plan;
  plan.seed = 8;
  plan.device_loss_rate = 1.0;
  FaultRuntime rt(plan);
  sim::DeviceGroup group(2, sim::DeviceSpec::tesla_c2075(), {}, false, rt);
  try {
    group.launch_sharded(2, std::vector<int>{0, 1}, {},
                         [](sim::BlockContext&, int) {}, nullptr, "chaos");
    FAIL() << "losing every device did not throw";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.record().kind, sim::FaultKind::kDeviceLoss);
    EXPECT_EQ(e.record().site, "group.all_lost");
  }
}

// --- recovery error paths -------------------------------------------------

DynamicBc::Options gpu_options(int devices, const RecoveryPolicy& recovery) {
  DynamicBc::Options opt;
  opt.engine = EngineKind::kGpuEdge;
  opt.approx = {.num_sources = 12, .seed = 5};
  opt.num_devices = devices;
  opt.recovery = recovery;
  return opt;
}

TEST(Recovery, ExhaustionWithoutFallbackThrows) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  sim::Runtime rt;
  DynamicBc analytic(
      g, gpu_options(1, {.max_retries = 2, .fallback_recompute = false}),
      rt);
  analytic.compute();
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.kernel_abort_rate = 1.0;
  plan.site_filter = "insert";
  rt.faults.configure(plan);
  rt.faults.set_enabled(true);
  BCDYN_SEEDED_RNG(rng, 77);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  EXPECT_THROW(analytic.insert_edge(u, v), sim::FaultError);
  EXPECT_EQ(rt.metrics.counter_value("bc.fault.exhausted.count"), 1u);
  EXPECT_EQ(rt.metrics.counter_value("bc.fault.retries.count"), 2u);
  EXPECT_EQ(rt.metrics.counter_value("bc.fault.recovered.count"), 0u);
}

TEST(Recovery, FallbackRecomputesWhenRetriesExhaust) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  sim::Runtime rt;
  DynamicBc analytic(
      g, gpu_options(1, {.max_retries = 1, .fallback_recompute = true}),
      rt);
  analytic.compute();
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.kernel_abort_rate = 1.0;
  // Only dynamic-update launches fault; the static_bc.* fallback launches
  // stay clean, so the recompute succeeds.
  plan.site_filter = "insert";
  rt.faults.configure(plan);
  rt.faults.set_enabled(true);
  BCDYN_SEEDED_RNG(rng, 78);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  const UpdateOutcome outcome = analytic.insert_edge(u, v);
  EXPECT_EQ(outcome.recomputed_sources, 12);
  EXPECT_EQ(
      rt.metrics.counter_value("bc.fault.fallback_recompute.count"), 1u);
  // The fallback abandons the incremental patch; scores match a from-
  // scratch recompute to FP rounding.
  EXPECT_LE(analytic.verify_against_recompute(), 1e-9);
}

TEST(Recovery, FaultedFallbackPropagates) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  sim::Runtime rt;
  DynamicBc analytic(
      g, gpu_options(1, {.max_retries = 1, .fallback_recompute = true}),
      rt);
  analytic.compute();
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.kernel_abort_rate = 1.0;  // every launch aborts, fallback included
  rt.faults.configure(plan);
  rt.faults.set_enabled(true);
  BCDYN_SEEDED_RNG(rng, 79);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  EXPECT_THROW(analytic.insert_edge(u, v), sim::FaultError);
  // Both the update pass and the fallback recompute exhausted.
  EXPECT_EQ(rt.metrics.counter_value("bc.fault.exhausted.count"), 2u);
  EXPECT_EQ(
      rt.metrics.counter_value("bc.fault.fallback_recompute.count"), 1u);
}

// --- recovered scores: bit-identical to the fault-free reference ----------

struct ChaosCase {
  EngineKind engine;
  int devices;
};

std::string chaos_name(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string name = to_string(info.param.engine);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_x" + std::to_string(info.param.devices);
}

class ChaosSoak : public ::testing::TestWithParam<ChaosCase> {};

/// Drives a mixed stream of single inserts, removals, and batch inserts
/// through `analytic`. The op sequence is a pure function of `seed`, so a
/// faulty run and its fault-free reference execute identical workloads.
void run_mixed_stream(DynamicBc& analytic, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> inserted;
  for (int step = 0; step < 12; ++step) {
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 5) {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      if (u == kNoVertex) continue;
      if (analytic.insert_edge(u, v).inserted) inserted.emplace_back(u, v);
    } else if (roll < 7 && !inserted.empty()) {
      const std::size_t pick = rng.next_below(inserted.size());
      const auto [u, v] = inserted[pick];
      inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(pick));
      analytic.remove_edge(u, v);
    } else {
      std::vector<std::pair<VertexId, VertexId>> batch;
      for (int i = 0; i < 6; ++i) {
        const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
        if (u != kNoVertex) batch.emplace_back(u, v);
      }
      analytic.insert_edge_batch(batch);
    }
  }
}

TEST_P(ChaosSoak, RecoveredScoresBitIdenticalToFaultFree) {
  const auto& param = GetParam();
  const CSRGraph g = test::gnp_graph(64, 0.1, 13);
  const RecoveryPolicy recovery{.max_retries = 10,
                                .fallback_recompute = false};
  DynamicBc::Options opt;
  opt.engine = param.engine;
  opt.approx = {.num_sources = 16, .seed = 5};
  opt.num_devices = param.devices;
  opt.recovery = recovery;

  // Fault-free reference.
  DynamicBc reference(g, opt);
  reference.compute();
  run_mixed_stream(reference, 4242);
  const std::vector<double> expected(reference.scores().begin(),
                                     reference.scores().end());

  // Faulty run: every fault kind live at a rate the retry budget absorbs.
  const sim::FaultPlan plan = sim::FaultPlan::uniform(0xFA17, 0.03);
  std::vector<std::string> first_records;
  std::uint64_t first_injected = 0;
  {
    FaultRuntime rt(plan);
    DynamicBc faulty(g, opt, rt);
    faulty.compute();
    run_mixed_stream(faulty, 4242);
    expect_bit_identical(faulty.scores(), expected, "recovered scores");
    first_records = record_strings(rt.faults);
    first_injected = rt.faults.injected();
  }

  // Same plan, same workload: the fault trajectory replays byte-identically
  // and so do the recovered scores.
  {
    FaultRuntime rt(plan);
    DynamicBc faulty(g, opt, rt);
    faulty.compute();
    run_mixed_stream(faulty, 4242);
    expect_bit_identical(faulty.scores(), expected, "replayed scores");
    EXPECT_EQ(record_strings(rt.faults), first_records);
    EXPECT_EQ(rt.faults.injected(), first_injected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByDevices, ChaosSoak,
    ::testing::Values(ChaosCase{EngineKind::kGpuEdge, 1},
                      ChaosCase{EngineKind::kGpuEdge, 2},
                      ChaosCase{EngineKind::kGpuEdge, 4},
                      ChaosCase{EngineKind::kGpuNode, 1},
                      ChaosCase{EngineKind::kGpuNode, 2},
                      ChaosCase{EngineKind::kGpuNode, 4},
                      ChaosCase{EngineKind::kGpuAdaptive, 1},
                      ChaosCase{EngineKind::kGpuAdaptive, 2},
                      ChaosCase{EngineKind::kGpuAdaptive, 4}),
    chaos_name);

TEST(ChaosPipeline, TransferFaultsRecoverBitIdentically) {
  const CSRGraph g = test::gnp_graph(64, 0.1, 13);
  DynamicBc::Options opt = gpu_options(2, {.max_retries = 8});
  const auto make_batches = [&] {
    util::Rng rng(31);
    std::vector<std::vector<std::pair<VertexId, VertexId>>> batches(4);
    for (auto& batch : batches) {
      for (int i = 0; i < 5; ++i) {
        batch.emplace_back(
            static_cast<VertexId>(rng.next_below(64)),
            static_cast<VertexId>(rng.next_below(64)));
      }
    }
    return batches;
  };
  const PipelineConfig config{.depth = 2};

  DynamicBc reference(g, opt);
  reference.compute();
  const PipelineResult clean =
      reference.insert_edge_batches(make_batches(), config);
  const std::vector<double> expected(reference.scores().begin(),
                                     reference.scores().end());

  sim::FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.transfer_fail_rate = 0.3;
  plan.stall_rate = 0.5;
  FaultRuntime rt(plan);
  DynamicBc faulty(g, opt, rt);
  faulty.compute();
  const PipelineResult result =
      faulty.insert_edge_batches(make_batches(), config);
  expect_bit_identical(faulty.scores(), expected, "pipelined scores");
  EXPECT_EQ(result.total.inserted, clean.total.inserted);
  EXPECT_GT(rt.faults.injected(sim::FaultKind::kStreamStall), 0u);
  // Stalls and retried transfers only push the modeled schedule out.
  EXPECT_GE(result.modeled_seconds, clean.modeled_seconds);
}

TEST(Chaos, DisabledInjectorLeavesMetricsUntouched) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  const auto run_metrics = [&](bool enabled_at_zero) {
    sim::Runtime rt;
    rt.faults.configure(sim::FaultPlan::uniform(1, 0.0));
    rt.faults.set_enabled(enabled_at_zero);
    DynamicBc analytic(g, gpu_options(2, {}), rt);
    analytic.compute();
    BCDYN_SEEDED_RNG(rng, 55);
    for (int i = 0; i < 4; ++i) {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      analytic.insert_edge(u, v);
    }
    std::ostringstream json;
    rt.metrics.write_json(json);
    return json.str();
  };
  const std::string plain = run_metrics(false);
  const std::string armed = run_metrics(true);
  EXPECT_EQ(plain, armed)
      << "injector enabled at rate 0 perturbed the metrics registry";
}

}  // namespace
}  // namespace bcdyn
