// The consolidated front door: one Session object owns the analytic and
// records into the sim::Runtime it is handed.
//
//   bcdyn::sim::Runtime rt;                    // or Runtime::process()
//   rt.telemetry.set_enabled(true);
//   bcdyn::bc::Session session(graph, {.engine = bcdyn::EngineKind::kGpuNode,
//                                      .num_devices = 2,
//                                      .pipeline_depth = 2},
//                              rt);
//   session.compute();
//   session.insert_edge_batches(batches);   // pipelined, overlap-modeled
//   std::cout << session.report();
//
// Observability is configured on the Runtime, through its components'
// own set_enabled/configure (tracer, telemetry, hazard detector, fault
// injector); a Session changes none of it. Two Sessions on two Runtimes
// share no counter, trace, telemetry window or fault plan; a Session given
// no Runtime records into Runtime::process().
//
// Session also carries the pipelined batch driver's depth, so tools choose
// sync vs pipelined ingest per call, not per engine rebuild. DynamicBc
// stays available as the bare analytic underneath.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"
#include "gpusim/runtime.hpp"

namespace bcdyn::bc {

/// Everything configurable about a Session, in one aggregate. The analytic
/// fields mirror DynamicBc::Options field for field (Session is the front
/// door, not a new engine); the pipeline depth is Session-only.
struct Options {
  EngineKind engine = EngineKind::kCpu;
  ApproxConfig approx;
  sim::DeviceSpec device_spec = sim::DeviceSpec::tesla_c2075();
  int num_devices = 1;
  ShardPolicy shard_policy = ShardPolicy::kRoundRobin;
  bool track_atomic_conflicts = false;
  double batch_recompute_threshold = 0.25;
  AdaptiveConfig adaptive{};
  /// Reaction to injected faults (retries, modeled backoff, recompute
  /// fallback); only meaningful with the runtime's fault injector on.
  RecoveryPolicy recovery{};

  /// insert_edge_batches staging depth (1 = synchronous chain; 2 = double
  /// buffering). Forwarded into PipelineConfig, which models the per-batch
  /// score download.
  int pipeline_depth = 2;

  /// The analytic subset, for constructing the wrapped DynamicBc.
  DynamicBc::Options analytic_options() const;
};

class Session {
 public:
  /// Snapshots `g` into the analytic, which records into `runtime` (it
  /// must outlive the Session).
  Session(const CSRGraph& g, const Options& options,
          sim::Runtime& runtime = sim::Runtime::process());

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- the analytic surface (forwards to DynamicBc) ---------------------
  double compute() { return bc_.compute(); }
  UpdateOutcome insert_edge(VertexId u, VertexId v) {
    return bc_.insert_edge(u, v);
  }
  UpdateOutcome remove_edge(VertexId u, VertexId v) {
    return bc_.remove_edge(u, v);
  }
  UpdateOutcome insert_edges(
      std::span<const std::pair<VertexId, VertexId>> edges) {
    return bc_.insert_edges(edges);
  }
  UpdateOutcome insert_edge_batch(
      std::span<const std::pair<VertexId, VertexId>> edges) {
    return bc_.insert_edge_batch(edges);
  }
  /// Pipelined ingest at the session's configured depth.
  PipelineResult insert_edge_batches(
      std::span<const std::vector<std::pair<VertexId, VertexId>>> batches);

  std::span<const double> scores() const { return bc_.scores(); }
  std::vector<std::pair<VertexId, double>> top_k(int k) const {
    return bc_.top_k(k);
  }
  const CSRGraph& graph() const { return bc_.graph(); }
  bool computed() const { return bc_.computed(); }
  EngineKind engine() const { return bc_.engine(); }
  int num_devices() const { return bc_.num_devices(); }
  ParallelismPolicy* policy() { return bc_.policy(); }
  double verify_against_recompute() const {
    return bc_.verify_against_recompute();
  }

  const Options& options() const { return options_; }
  sim::Runtime& runtime() const { return bc_.runtime(); }
  /// The wrapped analytic, for surface Session does not re-export.
  DynamicBc& analytic() { return bc_; }
  const DynamicBc& analytic() const { return bc_; }

  /// The run report (trace/report.hpp) over the runtime's current metric,
  /// trace and telemetry state - what bcdyn_trace prints.
  std::string report() const;

 private:
  Options options_;
  DynamicBc bc_;
};

}  // namespace bcdyn::bc
