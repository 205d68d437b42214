#include "bc/recovery.hpp"

#include <string>

namespace bcdyn::detail {

void note_fault(sim::Runtime& rt, const char* what,
                const sim::FaultError& error, const char* action, int devices) {
  const sim::FaultRecord& record = error.record();
  rt.metrics.add("bc.fault.caught.count");
  rt.metrics.add(std::string("bc.fault.caught.") +
                 std::string(sim::to_string(record.kind)));

  if (rt.tracer.enabled()) {
    rt.tracer.instant(std::string("bc.fault.") + action, "fault",
                      {{"seq", static_cast<double>(record.seq)}});
  }

  if (rt.telemetry.enabled()) {
    trace::AnomalyEvent event;
    event.seq = record.seq;
    event.sample.engine = what;
    event.sample.devices = devices;
    event.detail = record.to_string() + " -> " + action;
    rt.telemetry.flag_fault(std::move(event));
  }
}

}  // namespace bcdyn::detail
