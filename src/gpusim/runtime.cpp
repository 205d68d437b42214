#include "gpusim/runtime.hpp"

namespace bcdyn::sim {

Runtime& Runtime::process() {
  static Runtime runtime;
  return runtime;
}

}  // namespace bcdyn::sim

namespace bcdyn::trace {

MetricsRegistry& metrics() { return sim::Runtime::process().metrics; }

}  // namespace bcdyn::trace
