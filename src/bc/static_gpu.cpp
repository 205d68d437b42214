#include "bc/static_gpu.hpp"

#include <algorithm>
#include <vector>

#include "bc/adaptive_policy.hpp"
#include "bc/static_kernels.hpp"

namespace bcdyn {

StaticGpuBc::StaticGpuBc(sim::DeviceSpec spec, Parallelism mode,
                         sim::CostModel cost, int host_workers,
                         bool track_atomic_conflicts)
    : device_(std::move(spec), cost, host_workers, track_atomic_conflicts),
      mode_(mode) {}

sim::KernelStats StaticGpuBc::compute(const CSRGraph& g, BcStore& store,
                                      int num_blocks) {
  if (num_blocks <= 0) num_blocks = device_.spec().num_sms;
  std::fill(store.bc().begin(), store.bc().end(), 0.0);
  const int k = store.num_sources();
  const Parallelism mode = mode_;

  LaunchPlan plan;
  std::vector<double> cycles;
  if (policy_ != nullptr) {
    plan = policy_->plan_static(g, store);
    cycles.assign(static_cast<std::size_t>(k), 0.0);
  }

  const char* name = policy_ != nullptr ? "static_bc.adaptive"
                     : mode == Parallelism::kEdge ? "static_bc.edge"
                                                  : "static_bc.node";
  const sim::KernelStats stats = device_.launch(
      num_blocks, [&, mode, num_blocks](sim::BlockContext& ctx) {
        std::vector<VertexId> order;
        std::vector<std::size_t> level_offsets;
        detail::LevelArcs levels;
        for (int si = ctx.block_id(); si < k; si += num_blocks) {
          const VertexId s = store.sources()[static_cast<std::size_t>(si)];
          const Parallelism m = plan.mode_or(si, mode);
          const double c0 = ctx.cycles();
          if (m == Parallelism::kEdge) {
            detail::static_source_edge(ctx, g, s, store.dist_row(si),
                                       store.sigma_row(si),
                                       store.delta_row(si), store.bc(),
                                       levels);
          } else {
            detail::static_source_node(ctx, g, s, store.dist_row(si),
                                       store.sigma_row(si),
                                       store.delta_row(si), store.bc(), order,
                                       level_offsets);
          }
          if (!cycles.empty()) {
            cycles[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
          }
        }
      },
      name);
  if (policy_ != nullptr) policy_->apply_feedback(plan, cycles, {});
  return stats;
}

}  // namespace bcdyn
