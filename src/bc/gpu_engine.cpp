#include "bc/gpu_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "bc/adaptive_policy.hpp"
#include "bc/case_classify.hpp"
#include "bc/dynamic_gpu.hpp"

namespace bcdyn {

namespace {

/// Greedy LPT: heaviest job first, each to the least-loaded device (ties
/// toward the lowest device id). Equal weights degrade to round-robin.
std::vector<int> lpt_assign(const std::vector<std::int64_t>& weights,
                            int num_devices) {
  const int k = static_cast<int>(weights.size());
  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weights[static_cast<std::size_t>(a)] >
           weights[static_cast<std::size_t>(b)];
  });
  std::vector<int> device(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> load(static_cast<std::size_t>(num_devices), 0);
  for (int si : order) {
    int target = 0;
    for (int d = 1; d < num_devices; ++d) {
      if (load[static_cast<std::size_t>(d)] <
          load[static_cast<std::size_t>(target)]) {
        target = d;
      }
    }
    device[static_cast<std::size_t>(si)] = target;
    // Weightless jobs still occupy a queue slot; count them as 1 so the
    // first launch (no history) spreads sources instead of piling them
    // onto device 0.
    load[static_cast<std::size_t>(target)] +=
        std::max<std::int64_t>(weights[static_cast<std::size_t>(si)], 1);
  }
  return device;
}

std::vector<int> round_robin_assign(int k, int num_devices) {
  std::vector<int> device(static_cast<std::size_t>(k));
  for (int si = 0; si < k; ++si) {
    device[static_cast<std::size_t>(si)] = si % num_devices;
  }
  return device;
}

/// Predicted relative cost of one source's single-edge update, readable
/// from the store's dist row before launching (the same host-side
/// information a real multi-GPU driver has): same-level edges are
/// classification-only, adjacent ones pay for their touched subtree, and
/// distance-changing ones recompute the source - the heavy tail LPT must
/// spread. Same scale as batch_job_weight. An existing edge's endpoints
/// differ by at most one level, so removals classify to kNoWork or
/// kAdjacent only; an adjacent removal can escalate to a per-source
/// recompute (no surviving parent), so it gets the heavy weight.
std::int64_t update_job_weight(std::span<const Dist> dist, VertexId u,
                               VertexId v, bool removal) {
  switch (classify_insertion(dist, u, v).update_case) {
    case UpdateCase::kNoWork:
      return 0;
    case UpdateCase::kAdjacent:
      return removal ? 4 : 1;
    case UpdateCase::kFar:
      return 4;
  }
  return 0;
}

}  // namespace

const char* to_string(ShardPolicy policy) {
  return policy == ShardPolicy::kRoundRobin ? "round-robin" : "lpt";
}

void GpuWorkspace::ensure(VertexId n) {
  const auto size = static_cast<std::size_t>(n);
  if (t.size() >= size) return;
  t.assign(size, 0);
  moved.assign(size, 0);
  reset.assign(size, 0);
  sigma_hat.assign(size, 0.0);
  delta_hat.assign(size, 0.0);
  d_new.assign(size, kInfDist);
}

/// What one launch needs beyond its per-source body.
struct GpuEngine::Launch {
  const char* kind;  // launch-name stem
  const LaunchPlan& plan;
  /// Host-side per-source cost prediction read off the pre-launch rows;
  /// null means "the previous launch's cycles" (the static pass).
  std::function<std::int64_t(int)> predict = nullptr;
  /// Batches: ordered heaviest-first by `predict` - the kStrided work
  /// queue, and the kSharded queues under either shard policy.
  bool queued = false;
  int num_blocks = 0;  // kStrided strided launches; <= 0 = one per SM
};

GpuEngine::GpuEngine(GpuSchedule schedule, int num_devices,
                     sim::DeviceSpec spec, Parallelism mode,
                     sim::CostModel cost, bool track_atomic_conflicts,
                     ShardPolicy shard_policy, sim::Runtime& runtime)
    : mode_(mode), shard_policy_(shard_policy) {
  if (schedule == GpuSchedule::kSharded) {
    group_.emplace(num_devices, std::move(spec), cost, track_atomic_conflicts,
                   runtime);
  } else {
    if (num_devices != 1) {
      throw std::invalid_argument("GpuEngine: kStrided runs on one device");
    }
    device_.emplace(std::move(spec), cost, track_atomic_conflicts, runtime);
  }
}

void GpuEngine::charge_fault_backoff(double cycles) {
  for (int d = 0; d < num_devices(); ++d) {
    device(d).charge_fault_backoff(cycles);
  }
}

std::vector<std::int64_t> GpuEngine::previous_cycles(int k) const {
  if (last_cycles_.size() == static_cast<std::size_t>(k)) return last_cycles_;
  return std::vector<std::int64_t>(static_cast<std::size_t>(k), 0);
}

std::vector<int> GpuEngine::shard(
    int k, const std::vector<std::int64_t>& weights) const {
  return shard_policy_ == ShardPolicy::kRoundRobin
             ? round_robin_assign(k, num_devices())
             : lpt_assign(weights, num_devices());
}

std::vector<int> GpuEngine::shard_sources(int k) const {
  return shard(k, previous_cycles(k));
}

GpuLaunch GpuEngine::run(const Launch& launch, int k, const SourceBody& body) {
  const std::string name =
      std::string(launch.kind) + (policy_ != nullptr        ? ".adaptive"
                                  : mode_ == Parallelism::kEdge ? ".edge"
                                                                : ".node");
  std::vector<double> cycles(policy_ != nullptr ? k : 0, 0.0);
  std::vector<VertexId> touched(cycles.size(), 0);
  const sim::Device::JobKernel job = [&](sim::BlockContext& ctx, int si) {
    const double c0 = ctx.cycles();
    const VertexId t = body(ctx, si, launch.plan.mode_or(si, mode_));
    if (!cycles.empty()) {
      cycles[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
      touched[static_cast<std::size_t>(si)] = t;
    }
  };
  // Per-source weights: the policy's cycle estimates when it planned the
  // launch (kSharded only - the kStrided queue always orders by the
  // classification-based prediction), else the host-side prediction, else
  // the previous launch's cycles.
  const auto weights = [&](bool planned) {
    if (!planned && !launch.predict) return previous_cycles(k);
    std::vector<std::int64_t> w(static_cast<std::size_t>(k), 0);
    for (int si = 0; si < k; ++si) {
      w[static_cast<std::size_t>(si)] =
          planned ? policy_->planned_weight(launch.plan, si)
                  : launch.predict(si);
    }
    return w;
  };

  GpuLaunch out;
  if (group_) {
    // Batches order every queue by weight; other launches only under LPT.
    std::vector<std::int64_t> w;
    if (launch.queued || shard_policy_ == ShardPolicy::kLptTouched) {
      w = weights(policy_ != nullptr);
    }
    out.group = group_->launch_sharded(k, shard(k, w), w, job, nullptr, name);
    out.stats = out.group.group;
    // The next launch's LPT input: each job's modeled cycles, pop included.
    last_cycles_.resize(out.group.placements.size());
    for (std::size_t j = 0; j < out.group.placements.size(); ++j) {
      const auto& p = out.group.placements[j];
      last_cycles_[j] = std::llround(p.end_cycles - p.start_cycles);
    }
  } else if (launch.queued) {
    // Heaviest first: the host-side sort a driver performs before
    // enqueueing. It changes only the modeled schedule; the host still
    // runs the jobs in source order.
    const std::vector<std::int64_t> w = weights(false);
    out.job_sources.resize(static_cast<std::size_t>(k));
    std::iota(out.job_sources.begin(), out.job_sources.end(), 0);
    std::stable_sort(out.job_sources.begin(), out.job_sources.end(),
                     [&](int a, int b) {
                       return w[static_cast<std::size_t>(a)] >
                              w[static_cast<std::size_t>(b)];
                     });
    out.stats = device_->launch_queue(out.job_sources, job, &out.job_stats,
                                      name);
  } else {
    const int num_blocks =
        launch.num_blocks > 0 ? launch.num_blocks : device_->spec().num_sms;
    out.stats = device_->launch_strided(num_blocks, k, job, name);
  }
  if (policy_ != nullptr) policy_->apply_feedback(launch.plan, cycles, touched);
  return out;
}

GpuLaunch GpuEngine::compute(const CSRGraph& g, BcStore& store,
                             int num_blocks) {
  std::fill(store.bc().begin(), store.bc().end(), 0.0);
  const LaunchPlan plan =
      policy_ != nullptr ? policy_->plan_static(g, store) : LaunchPlan{};
  return run({.kind = "static_bc", .plan = plan, .num_blocks = num_blocks},
             store.num_sources(),
             [&](sim::BlockContext& ctx, int si, Parallelism m) -> VertexId {
               const VertexId s = store.sources()[static_cast<std::size_t>(si)];
               if (m == Parallelism::kEdge) {
                 detail::static_source_edge(ctx, g, s, store.dist_row(si),
                                            store.sigma_row(si),
                                            store.delta_row(si), store.bc(),
                                            ws_.levels);
               } else {
                 detail::static_source_node(
                     ctx, g, s, store.dist_row(si), store.sigma_row(si),
                     store.delta_row(si), store.bc(), ws_.order,
                     ws_.level_offsets);
               }
               return 0;
             });
}

GpuLaunch GpuEngine::update_edge(bool removal, const CSRGraph& g,
                                 BcStore& store, VertexId u, VertexId v,
                                 std::vector<SourceUpdateOutcome>& outcomes) {
  const int k = store.num_sources();
  outcomes.assign(static_cast<std::size_t>(k), {});
  ws_.ensure(g.num_vertices());
  const LaunchPlan plan = policy_ != nullptr
                              ? policy_->plan_update(g, store, u, v, removal)
                              : LaunchPlan{};
  return run({.kind = removal ? "remove" : "insert",
              .plan = plan,
              .predict =
                  [&](int si) {
                    return update_job_weight(store.dist_row(si), u, v,
                                             removal);
                  }},
             k,
             [&](sim::BlockContext& ctx, int si, Parallelism m) -> VertexId {
               auto& o = outcomes[static_cast<std::size_t>(si)];
               o = detail::gpu_update_source(
                   ctx, ws_, m, g, store.sources()[static_cast<std::size_t>(si)],
                   store.dist_row(si), store.sigma_row(si),
                   store.delta_row(si), store.bc(), u, v, removal);
               return o.touched;
             });
}

GpuLaunch GpuEngine::insert_batch(const BatchSnapshots& batch, BcStore& store,
                                  const BatchConfig& config,
                                  std::vector<SourceBatchOutcome>& outcomes) {
  const int k = store.num_sources();
  outcomes.assign(static_cast<std::size_t>(k), {});
  if (batch.empty() || k == 0) return {};
  const CSRGraph& final_g = batch.final_graph();
  const VertexId n = final_g.num_vertices();
  ws_.ensure(n);
  const LaunchPlan plan = policy_ != nullptr
                              ? policy_->plan_batch(final_g, store, batch)
                              : LaunchPlan{};
  return run(
      {.kind = "batch",
       .plan = plan,
       .predict =
           [&](int si) {
             return detail::batch_job_weight(store.dist_row(si), batch);
           },
       .queued = true},
      k, [&](sim::BlockContext& ctx, int si, Parallelism m) -> VertexId {
        const VertexId s = store.sources()[static_cast<std::size_t>(si)];
        auto d = store.dist_row(si);
        auto sigma = store.sigma_row(si);
        auto delta = store.delta_row(si);
        auto& o = outcomes[static_cast<std::size_t>(si)];
        o = detail::run_source_batch(
            ctx.runtime().metrics, batch.edges.size(), n, config,
            [&](std::size_t i) {
              const auto [u, v] = batch.edges[i];
              return detail::gpu_update_source(
                  ctx, ws_, m, batch.graphs[i], s, d, sigma, delta,
                  store.bc(), u, v, /*removal=*/false);
            },
            [&] {
              detail::gpu_recompute_source(ctx, ws_, m, final_g, s, d, sigma,
                                           delta, store.bc());
            });
        return o.touched_total;
      });
}

}  // namespace bcdyn
