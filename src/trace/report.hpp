// Human-readable run report assembled from a recorded trace, the metrics
// registry and the stream telemetry of one sim::Runtime. This is what
// `bcdyn_trace` prints and what bc::Session::report() returns.
//
// Sections appear in a fixed, documented order so reports from two runs
// diff cleanly. Sections marked (opt-in) are omitted entirely - not
// rendered empty - when their subsystem recorded nothing, which keeps a
// plain run's report byte-identical whether or not the feature is built:
//
//   1. == top kernels by modeled time ==   always
//   2. == SM timelines ==                  always
//   3. == device group ==                  (opt-in: sim.group.launches)
//   4. == pipeline ==                      (opt-in: bc.pipeline.runs)
//   5. == case mix (per source x update) ==  always
//   6. == atomic-conflict hotspots ==      always
//   7. == hazard detection ==              (opt-in: sim.hazard.launches)
//   8. == faults ==                        (opt-in: sim.fault.injected /
//                                           bc.fault.caught)
//   9. == adaptive policy ==               (opt-in: bc.adaptive.decisions)
//  10. == stream telemetry ==              (opt-in: telemetry updates)
//  11. == service ==                       (opt-in: bc.service.requests)
//  12. == BFS frontier sizes ==            (opt-in: bc.frontier_size)
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace bcdyn::trace {

void write_report(const std::vector<TraceEvent>& events,
                  const MetricsRegistry& registry,
                  const StreamTelemetry& telemetry, std::ostream& out);

std::string report_string(const Tracer& tracer, const MetricsRegistry& registry,
                          const StreamTelemetry& telemetry);

}  // namespace bcdyn::trace
