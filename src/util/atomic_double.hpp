// Atomic accumulation into plain double arrays via std::atomic_ref.
//
// The simulated GPU engines update the shared BC array from concurrent
// thread blocks exactly like the paper's kernels do with atomicAdd. The
// simulated device runs every block on the calling thread, so the adds
// land in one fixed order and are fully deterministic.
#pragma once

#include <atomic>
#include <span>

namespace bcdyn::util {

inline void atomic_add(std::span<double> values, std::size_t index,
                       double delta) {
  std::atomic_ref<double> ref(values[index]);
  double expected = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(expected, expected + delta,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace bcdyn::util
