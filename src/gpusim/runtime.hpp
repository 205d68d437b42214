// The observability and chaos state one analytic records into.
//
// A Runtime owns one of each recorder the stack writes to: the always-on
// metrics registry, the opt-in tracer and stream telemetry, the hazard
// detector and the fault injector (the last three count into their
// sibling registry). Session and Service take a Runtime& and hand it down
// to DynamicBc, the engines, the parallelism policy, every Device,
// DeviceGroup, Stream and BlockContext, so two analytics on two Runtimes
// in one process share no counter, trace, window, shadow or fault plan.
//
// Callers configure a Runtime through the components themselves:
//
//   sim::Runtime rt;
//   rt.tracer.set_enabled(true);
//   rt.faults.configure(sim::FaultPlan::uniform(7, 0.02));
//   rt.faults.set_enabled(true);
//   bc::Session session(graph, options, rt);
//
// Code that passes no Runtime records into Runtime::process(), the one
// process-wide instance (trace::metrics() is its registry).
#pragma once

#include "gpusim/fault_injector.hpp"
#include "gpusim/hazard_detector.hpp"
#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace bcdyn::sim {

struct Runtime {
  Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The process-wide Runtime behind every default argument.
  static Runtime& process();

  trace::MetricsRegistry metrics;
  trace::Tracer tracer;
  trace::StreamTelemetry telemetry{metrics};
  HazardDetector hazards{metrics};
  FaultInjector faults{metrics};
};

}  // namespace bcdyn::sim
