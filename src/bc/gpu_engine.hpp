// The one launch core behind every simulated-GPU BC launch.
//
// The paper splits work coarsely: every source vertex is an independent
// job (§III, one source per thread block). GpuEngine runs all four launch
// kinds - static pass, single-edge insertion, single-edge removal, fused
// batch - through one body: plan each source's edge/node mode through the
// adaptive policy (when one is set), run one per-source body per source on
// the host IN SOURCE ORDER, record each source's modeled cycles for the
// policy's feedback, and name the launch "<kind>.<edge|node|adaptive>".
//
// Host execution order is fixed, so every BC fold happens in source order
// and scores are bit-identical for every schedule and device count. The
// schedule is modeled arithmetic only, fixed at construction:
//
//   kStrided  one device. Static passes and single-edge updates use the
//             paper's strided launch (one block per SM, block b takes
//             sources b, b + nb, ...); batches use the work queue ordered
//             heaviest-first by the provisional batch weight.
//   kSharded  a sim::DeviceGroup. Every launch shards its sources across
//             per-device work queues with cross-device stealing
//             (ShardPolicy decides the home queues). A one-device group
//             is a valid kSharded engine: the work-queue model on one
//             device for every launch kind.
//
// DynamicGpuBc and StaticGpuBc are kStrided engines; ShardedGpuBc is a
// kSharded one; DynamicBc owns one engine whose schedule follows its
// device count (schedule_for).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/bc_store.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

class ParallelismPolicy;  // bc/adaptive_policy.hpp
struct LaunchPlan;        // bc/adaptive_policy.hpp

/// The fine-grained mapping inside a block: one thread per directed arc
/// with the whole arc list scanned per level, or explicit frontier queues.
enum class Parallelism { kEdge, kNode };

inline const char* to_string(Parallelism p) {
  return p == Parallelism::kEdge ? "Edge" : "Node";
}

/// How the kSharded schedule partitions sources across the group's home
/// queues. Stealing rebalances either policy at runtime; the policy decides
/// how much stealing is needed.
enum class ShardPolicy {
  /// Source index si homes on device si % N. Oblivious to per-source cost,
  /// so skewed sources lean on work stealing.
  kRoundRobin,
  /// Longest-processing-time-first: heaviest source to the least-loaded
  /// device, and each queue ordered heaviest-first. Weights come from the
  /// best host-side prediction available per launch kind: the previous
  /// launch's modeled cycles for the static pass, the per-source case
  /// classification (read off the dist rows) for single-edge updates, and
  /// the provisional batch weight for batches. No prediction (first static
  /// pass) degrades to round-robin.
  kLptTouched,
};

const char* to_string(ShardPolicy policy);

/// Host scratch of the per-source bodies (the sigma-hat/delta-hat/t arrays
/// of Algorithm 3, the queues of Algorithm 5, the per-level arc ranges of
/// the edge-parallel sweeps, and the static pass's frontier order). Host
/// execution is sequential, so one instance serves every source.
struct GpuWorkspace {
  std::vector<std::uint8_t> t;
  std::vector<std::uint8_t> moved;
  std::vector<std::uint8_t> reset;
  std::vector<Sigma> sigma_hat;
  std::vector<double> delta_hat;
  std::vector<Dist> d_new;
  std::vector<VertexId> q;
  std::vector<VertexId> q2;
  std::vector<VertexId> qq;
  std::vector<VertexId> moved_list;
  std::vector<VertexId> scratch;
  std::vector<std::uint32_t> flags;
  std::vector<VertexId> order;
  std::vector<std::size_t> level_offsets;
  detail::LevelArcs levels;

  void ensure(VertexId n);
};

/// Which modeled schedule an engine's launches use (see the header comment).
enum class GpuSchedule { kStrided, kSharded };

/// One launch's modeled result. `stats` is always set (the group aggregate
/// on kSharded); the other fields belong to one schedule each.
struct GpuLaunch {
  sim::KernelStats stats;
  sim::GroupLaunchResult group;               // kSharded
  std::vector<int> job_sources;               // kStrided batch queue:
                                              // position -> source index
  std::vector<sim::BlockCounters> job_stats;  // kStrided batch queue, per
                                              // queue position
};

class GpuEngine {
 public:
  /// kStrided for one device, kSharded for several.
  static GpuSchedule schedule_for(int num_devices) {
    return num_devices > 1 ? GpuSchedule::kSharded : GpuSchedule::kStrided;
  }

  /// kStrided requires num_devices == 1 and ignores `shard_policy`. Every
  /// launch runs on the calling thread; the devices record into `runtime`.
  GpuEngine(GpuSchedule schedule, int num_devices, sim::DeviceSpec spec,
            Parallelism mode, sim::CostModel cost = {},
            bool track_atomic_conflicts = false,
            ShardPolicy shard_policy = ShardPolicy::kRoundRobin,
            sim::Runtime& runtime = sim::Runtime::process());

  /// Static pass: zeroes BC, then recomputes every row + BC from scratch.
  /// `num_blocks` <= 0 is one block per SM; kSharded ignores it.
  GpuLaunch compute(const CSRGraph& g, BcStore& store, int num_blocks = 0);

  /// One edge write, {u, v} inserted or (`removal`) removed: `g` already
  /// holds the write, the store holds the state before it. Every source
  /// runs detail::gpu_update_source: same-level writes are free, Case 2
  /// runs with the write's sign, an insertion's Case 3 repairs distances,
  /// and a distance-growing removal recomputes that source's row. Fills
  /// `outcomes` (indexed by source index).
  GpuLaunch update_edge(bool removal, const CSRGraph& g, BcStore& store,
                        VertexId u, VertexId v,
                        std::vector<SourceUpdateOutcome>& outcomes);

  /// Fused batch: one (source, batch) job per source replays the batch's
  /// insertions against its row, with the touched-fraction recompute
  /// fallback (bc/batch_update.hpp). No launch for an empty batch or k = 0.
  GpuLaunch insert_batch(const BatchSnapshots& batch, BcStore& store,
                         const BatchConfig& config,
                         std::vector<SourceBatchOutcome>& outcomes);

  int num_devices() const { return group_ ? group_->num_devices() : 1; }
  sim::Device& device(int i = 0) {
    return group_ ? group_->device(i) : *device_;
  }
  const sim::Device& device(int i = 0) const {
    return group_ ? group_->device(i) : *device_;
  }
  /// kSharded only.
  sim::DeviceGroup& group() { return *group_; }
  const sim::DeviceGroup& group() const { return *group_; }
  /// Deterministic modeled fault backoff on every device.
  void charge_fault_backoff(double cycles);

  Parallelism mode() const { return mode_; }
  ShardPolicy shard_policy() const { return shard_policy_; }

  /// Adaptive parallelism: when set, every launch plans a per-source
  /// edge/node decision through the policy and feeds the measured modeled
  /// cycles back; kLptTouched then shards by the policy's per-job cycle
  /// estimates. Null restores the fixed `mode`. Not owned.
  void set_policy(ParallelismPolicy* policy) { policy_ = policy; }
  ParallelismPolicy* policy() const { return policy_; }

  /// kSharded: the home-queue assignment the shard policy would produce for
  /// k sources from the previous launch's cycles (the static pass's shard).
  std::vector<int> shard_sources(int k) const;

 private:
  struct Launch;
  /// One source's work: runs source index `si` with mapping `mode` on
  /// `ctx` and returns its touched count (the policy's feedback).
  using SourceBody =
      std::function<VertexId(sim::BlockContext& ctx, int si, Parallelism mode)>;

  GpuLaunch run(const Launch& launch, int k, const SourceBody& body);
  /// The previous launch's per-source cycles, or zeros when it had a
  /// different source count (no history yet).
  std::vector<std::int64_t> previous_cycles(int k) const;
  /// kSharded home-queue assignment of k sources under the shard policy
  /// (round-robin ignores `weights`).
  std::vector<int> shard(int k, const std::vector<std::int64_t>& weights) const;

  std::optional<sim::Device> device_;      // kStrided
  std::optional<sim::DeviceGroup> group_;  // kSharded
  Parallelism mode_;
  ShardPolicy shard_policy_;
  ParallelismPolicy* policy_ = nullptr;
  GpuWorkspace ws_;
  std::vector<std::int64_t> last_cycles_;  // kSharded: per source index,
                                           // from the previous launch
};

}  // namespace bcdyn
