#include "bc/session.hpp"

#include "trace/report.hpp"

namespace bcdyn::bc {

DynamicBc::Options Options::analytic_options() const {
  return DynamicBc::Options{
      .engine = engine,
      .approx = approx,
      .device_spec = device_spec,
      .num_devices = num_devices,
      .shard_policy = shard_policy,
      .track_atomic_conflicts = track_atomic_conflicts,
      .batch_recompute_threshold = batch_recompute_threshold,
      .adaptive = adaptive,
      .recovery = recovery,
  };
}

Session::Session(const CSRGraph& g, const Options& options,
                 sim::Runtime& runtime)
    : options_(options), bc_(g, options.analytic_options(), runtime) {}

PipelineResult Session::insert_edge_batches(
    std::span<const std::vector<std::pair<VertexId, VertexId>>> batches) {
  return bc_.insert_edge_batches(
      batches,
      PipelineConfig{.depth = options_.pipeline_depth,
                     .batch = {.recompute_threshold =
                                   options_.batch_recompute_threshold}});
}

std::string Session::report() const {
  const sim::Runtime& rt = runtime();
  return trace::report_string(rt.tracer, rt.metrics, rt.telemetry);
}

}  // namespace bcdyn::bc
