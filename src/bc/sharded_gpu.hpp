// Multi-device source sharding for the simulated-GPU BC engines.
//
// The paper's coarse-grained decomposition (one source per thread block,
// §III) makes per-source jobs independent, so the same analytic scales past
// one device: partition the k sources across N devices, give every device
// its own work queue, and let devices that drain their queue steal from the
// longest remaining peer queue (sim::DeviceGroup). ShardedGpuBc is the
// sharded GpuEngine (bc/gpu_engine.hpp): the static pass, single-edge
// insertions/removals, and batched insertions each run as one group launch.
//
// Scores are bit-identical to the strided single-device engines for every
// device count and shard policy: every GpuEngine runs its per-source bodies
// on the host in source order, and only the modeled makespans, placements,
// and steal counts change with N.
#pragma once

#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/bc_store.hpp"
#include "bc/gpu_engine.hpp"
#include "gpusim/device_group.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

/// Per-source outcomes plus the group launch behind them.
struct ShardedUpdateResult {
  sim::GroupLaunchResult launch;
  std::vector<SourceUpdateOutcome> outcomes;  // indexed by source index
};

struct ShardedBatchResult {
  sim::GroupLaunchResult launch;
  std::vector<SourceBatchOutcome> outcomes;  // indexed by source index
};

class ShardedGpuBc {
 public:
  /// The group records into `runtime`.
  ShardedGpuBc(int num_devices, sim::DeviceSpec spec, Parallelism mode,
               sim::CostModel cost = {}, bool track_atomic_conflicts = false,
               ShardPolicy policy = ShardPolicy::kRoundRobin,
               sim::Runtime& runtime = sim::Runtime::process())
      : core_(GpuSchedule::kSharded, num_devices, std::move(spec), mode, cost,
              track_atomic_conflicts, policy, runtime) {}

  /// Static pass: recomputes every row + BC from scratch, one job per
  /// source, sharded across the group. Zeroes BC first.
  sim::GroupLaunchResult compute(const CSRGraph& g, BcStore& store) {
    return core_.compute(g, store).group;
  }

  /// Incremental insertion of {u, v} (g must already contain the edge; the
  /// store holds pre-insertion state). One job per source.
  ShardedUpdateResult insert_edge_update(const CSRGraph& g, BcStore& store,
                                         VertexId u, VertexId v) {
    ShardedUpdateResult r;
    r.launch = core_.update_edge(/*removal=*/false, g, store, u, v, r.outcomes).group;
    return r;
  }

  /// Decremental counterpart (g must no longer contain the edge).
  ShardedUpdateResult remove_edge_update(const CSRGraph& g, BcStore& store,
                                         VertexId u, VertexId v) {
    ShardedUpdateResult r;
    r.launch = core_.update_edge(/*removal=*/true, g, store, u, v, r.outcomes).group;
    return r;
  }

  /// Batched insertions: one (source, batch) job per source, each replaying
  /// the batch's edges against its row with the touched-fraction recompute
  /// fallback, exactly like DynamicGpuBc::insert_edge_batch.
  ShardedBatchResult insert_edge_batch(const BatchSnapshots& batch,
                                       BcStore& store,
                                       const BatchConfig& config) {
    ShardedBatchResult r;
    r.launch = core_.insert_batch(batch, store, config, r.outcomes).group;
    return r;
  }

  /// Home-queue assignment the current policy would produce for k sources
  /// from the previous launch's cycles (the static pass's shard; exposed
  /// for tests). Updates and batches re-shard per launch from edge-aware
  /// cost predictions instead.
  std::vector<int> shard_sources(int k) const {
    return core_.shard_sources(k);
  }

  sim::DeviceGroup& group() { return core_.group(); }
  const sim::DeviceGroup& group() const { return core_.group(); }
  int num_devices() const { return core_.num_devices(); }
  Parallelism mode() const { return core_.mode(); }
  ShardPolicy policy() const { return core_.shard_policy(); }

  /// Adaptive parallelism (GpuEngine::set_policy). Not owned.
  void set_policy(ParallelismPolicy* policy) { core_.set_policy(policy); }
  ParallelismPolicy* adaptive_policy() const { return core_.policy(); }

 private:
  GpuEngine core_;
};

}  // namespace bcdyn
