// Dynamic betweenness centrality on the simulated GPU (paper §III).
//
// Per source, one insertion is classified (§II.D.1) and runs the matching
// update kernels:
//
//   Case 1  nothing to do beyond the two distance reads - this is what
//           makes the paper's "fastest" updates ~constant time.
//   Case 2  the paper's Algorithms 3-8. Edge-parallel scans the whole
//           directed-arc list every BFS/dependency level (Algorithms 4, 6);
//           node-parallel keeps explicit frontier queues with the bitonic
//           sort + scan duplicate-removal pipeline and a flat multi-level
//           queue QQ (Algorithms 5, 7).
//   Case 3  the generalized repair of DESIGN.md §7 expressed in the same
//           two fine-grained mappings (the paper notes its techniques
//           "generalize and can be applied to Case 3").
//
// DynamicGpuBc launches those per-source bodies through the strided
// GpuEngine (bc/gpu_engine.hpp): one launch per edge with one block per
// SM, block b taking sources b, b+nblocks, ... (the paper's coarse-grained
// decomposition, Fig. 3), and one work-queue launch per batch.
//
// Every kernel charges its BlockContext for the memory traffic and atomics
// a CUDA implementation would issue; modeled time comes from those counters
// (gpusim/cost_model.hpp). Results are exact and are cross-checked against
// the sequential engine and static recomputation in the test suite.
#pragma once

#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/bc_store.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/gpu_engine.hpp"
#include "gpusim/device.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

struct GpuUpdateResult {
  sim::KernelStats stats;
  std::vector<SourceUpdateOutcome> outcomes;  // indexed by source index
};

class DynamicGpuBc {
 public:
  /// `host_workers` is ignored and kept for source compatibility: every
  /// launch runs on the calling thread. The device records into `runtime`.
  DynamicGpuBc(sim::DeviceSpec spec, Parallelism mode,
               sim::CostModel cost = {}, int /*host_workers*/ = 0,
               bool track_atomic_conflicts = false,
               sim::Runtime& runtime = sim::Runtime::process())
      : core_(GpuSchedule::kStrided, 1, std::move(spec), mode, cost,
              track_atomic_conflicts, ShardPolicy::kRoundRobin, runtime) {}

  /// Updates every source row of `store` plus the BC scores for the
  /// insertion of {u, v}. `g` must already contain the edge; the store
  /// holds pre-insertion state.
  GpuUpdateResult insert_edge_update(const CSRGraph& g, BcStore& store,
                                     VertexId u, VertexId v) {
    GpuUpdateResult r;
    r.stats = core_.update_edge(/*removal=*/false, g, store, u, v, r.outcomes).stats;
    return r;
  }

  /// Decremental counterpart: `g` must no longer contain {u, v}; the store
  /// holds pre-removal state. Same-level removals are free; adjacent-level
  /// removals with a surviving parent run the negative-increment Case 2
  /// kernels; distance-growing removals recompute that source's row on the
  /// device (reported as UpdateCase::kFar with touched = n).
  GpuUpdateResult remove_edge_update(const CSRGraph& g, BcStore& store,
                                     VertexId u, VertexId v) {
    GpuUpdateResult r;
    r.stats = core_.update_edge(/*removal=*/true, g, store, u, v, r.outcomes).stats;
    return r;
  }

  /// Batched counterpart: one work-queue launch processes every (source,
  /// batch) job, applying the batch's insertions per source in sequence
  /// against the batch's incremental snapshots, with a static-recompute
  /// fallback for sources whose touched fraction exceeds the configured
  /// threshold (bc/batch_update.hpp).
  GpuBatchResult insert_edge_batch(const BatchSnapshots& batch, BcStore& store,
                                   const BatchConfig& config) {
    GpuBatchResult r;
    GpuLaunch launch = core_.insert_batch(batch, store, config, r.outcomes);
    r.stats = launch.stats;
    r.job_sources = std::move(launch.job_sources);
    r.job_stats = std::move(launch.job_stats);
    return r;
  }

  const sim::DeviceSpec& spec() const { return core_.device().spec(); }
  Parallelism mode() const { return core_.mode(); }
  /// The simulated device the engine launches on.
  sim::Device& device() { return core_.device(); }

  /// Adaptive parallelism (GpuEngine::set_policy). Not owned.
  void set_policy(ParallelismPolicy* policy) { core_.set_policy(policy); }
  ParallelismPolicy* policy() const { return core_.policy(); }

 private:
  GpuEngine core_;
};

namespace detail {

/// One signed edge write applied to one source row inside an existing
/// block: classify (classify_insertion or classify_removal), then run the
/// Case 2 kernels with the write's sign, the Case 3 repair of an insertion,
/// or - for a distance-growing removal - recompute the row on the device;
/// fold BC deltas. The per-source body of GpuEngine's single-edge launches
/// (either sign) and of its batch launch (insertions).
SourceUpdateOutcome gpu_update_source(sim::BlockContext& ctx,
                                      GpuWorkspace& ws, Parallelism mode,
                                      const CSRGraph& g, VertexId s,
                                      std::span<Dist> d, std::span<Sigma> sigma,
                                      std::span<double> delta,
                                      std::span<double> bc, VertexId u,
                                      VertexId v, bool removal);

/// Recomputes source s's row from scratch on the device and folds the
/// dependency differences into `bc`. Shared by the distance-growing removal
/// fallback and the batch path's touched-fraction fallback.
void gpu_recompute_source(sim::BlockContext& ctx, GpuWorkspace& ws,
                          Parallelism mode, const CSRGraph& g, VertexId s,
                          std::span<Dist> d, std::span<Sigma> sigma,
                          std::span<double> delta, std::span<double> bc);

}  // namespace detail

}  // namespace bcdyn
