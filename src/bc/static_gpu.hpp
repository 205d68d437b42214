// Static betweenness centrality on the simulated GPU (Jia et al. [13]).
//
// This is the paper's recomputation baseline (Table III) and the workload
// behind Fig. 1's thread-block sweep: the static pass of the strided
// GpuEngine (bc/gpu_engine.hpp). One kernel launch processes every source
// with coarse-grained parallelism across blocks, and within a block the
// BFS + dependency stages use either edge-parallel (one thread per directed
// arc, whole arc list scanned per level) or node-parallel (explicit
// frontier queues) fine-grained mapping.
#pragma once

#include <utility>

#include "bc/bc_store.hpp"
#include "bc/gpu_engine.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

class StaticGpuBc {
 public:
  /// `host_workers` is ignored and kept for source compatibility: every
  /// launch runs on the calling thread. The device records into `runtime`.
  StaticGpuBc(sim::DeviceSpec spec, Parallelism mode,
              sim::CostModel cost = {}, int /*host_workers*/ = 0,
              bool track_atomic_conflicts = false,
              sim::Runtime& runtime = sim::Runtime::process())
      : core_(GpuSchedule::kStrided, 1, std::move(spec), mode, cost,
              track_atomic_conflicts, ShardPolicy::kRoundRobin, runtime) {}

  /// Recomputes the store (all rows + BC) from scratch on the simulated
  /// device. `num_blocks` <= 0 launches one block per SM (the paper's
  /// choice); Fig. 1 passes explicit block counts.
  sim::KernelStats compute(const CSRGraph& g, BcStore& store,
                           int num_blocks = 0) {
    return core_.compute(g, store, num_blocks).stats;
  }

  const sim::DeviceSpec& spec() const { return core_.device().spec(); }
  sim::Device& device() { return core_.device(); }

  /// Adaptive parallelism (GpuEngine::set_policy). Not owned.
  void set_policy(ParallelismPolicy* policy) { core_.set_policy(policy); }
  ParallelismPolicy* policy() const { return core_.policy(); }

 private:
  GpuEngine core_;
};

}  // namespace bcdyn
