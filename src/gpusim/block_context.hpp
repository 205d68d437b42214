// Execution context for one simulated thread block.
//
// Kernels written against this API look like the paper's pseudocode:
//
//   ctx.parallel_for(graph.num_arcs(), [&](std::size_t a) {
//     ctx.charge_read(d, src[a]);        // load d[arc_src[a]]
//     if (d[src[a]] != depth) return;    // divergent early-out
//     ...
//   });                                  // implicit barrier, charged
//
// parallel_for stripes items over `threads_per_block` SIMT threads: items
// [r*T, (r+1)*T) form round r, and the round is charged issue cost plus the
// *maximum* per-item cost in the round (lockstep divergence). Execution is
// sequential - the Device runs every block on the calling thread - so
// results are bit-deterministic.
//
// Charges come in two flavors. The addressed overloads
// (charge_read/write/atomic(array, index)) name the element they model
// touching, which feeds both atomic-conflict tracking and the opt-in
// sim::HazardDetector shadow pass; the legacy unaddressed overloads remain
// for structural charges (shared-memory staging, probe sequences) and are
// invisible to hazard detection. Cost and counter effects are identical
// between the two - the address only adds bookkeeping.
//
// Guarded sweeps. Edge-parallel kernels scan every arc on every level, and
// almost every item takes an early-out after a fixed prefix of charges.
// parallel_for_guarded charges such items in closed form instead of
// stepping them:
//
//   const FutileCost exits[] = {ctx.futile_cost(2, {1, 1, 1}),      // exit 1
//                               ctx.futile_cost(2, {1, 1, 1, 1})};  // exit 2
//   ctx.parallel_for_guarded(n, exits, [&](std::size_t a) -> int {
//     if (d[src[a]] != depth) return 1;
//     if (d[dst[a]] != depth + 1) return 2;
//     return 0;                          // step fn(a) as usual
//   }, fn);
//
// Contract:
//   - exits[k-1] describes fn's k-th early-out: its instruction units and
//     the read charges fn issues before returning, one entry per charge
//     call in fn's order (so the closed-form cycles add up bit-equal to
//     stepping). An exit issues no write and no atomic.
//   - exit(i) returns k >= 1 exactly when fn(i) would take the k-th
//     early-out, 0 otherwise. It is evaluated at the moment item i would
//     run, so it sees every earlier item's effects.
//   - fn is the full body, early-outs included.
// parallel_for_ranged additionally takes a sorted list of disjoint
// [begin, end) item ranges; items outside them take exit 1 and are counted
// per round without being classified. Rounds still close one by one, so
// counters and modeled cycles are bit-equal to parallel_for(n, fn). Only
// the hazard shadow needs every address: with it on, both variants step
// every item through parallel_for.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/hazard_detector.hpp"
#include "gpusim/kernel_stats.hpp"
#include "gpusim/runtime.hpp"

namespace bcdyn::sim {

/// Closed-form charge of one early-out (see the header comment).
struct FutileCost {
  std::uint64_t instrs = 0;
  std::uint64_t reads = 0;
  double cycles = 0.0;  // the item's latency chain, for the round max
};

/// Half-open item range [begin, end) of a ranged sweep.
struct ItemRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

class BlockContext {
 public:
  /// Holds pointers to `spec`, `cost` and `runtime`; all must outlive the
  /// context (Device owns them for the production paths). Temporaries are
  /// rejected at compile time to keep the borrow honest. The hazard shadow
  /// is on when the runtime's detector is enabled at construction.
  BlockContext(const DeviceSpec& spec, const CostModel& cost, int block_id,
               bool track_atomic_conflicts = false,
               Runtime& runtime = Runtime::process());
  BlockContext(DeviceSpec&&, const CostModel&, int, bool = false,
               Runtime& = Runtime::process()) = delete;
  BlockContext(const DeviceSpec&, CostModel&&, int, bool = false,
               Runtime& = Runtime::process()) = delete;
  BlockContext(BlockContext&&) noexcept;
  BlockContext& operator=(BlockContext&&) noexcept;
  ~BlockContext();

  int block_id() const { return block_id_; }
  /// Where the kernels running on this block record metrics.
  Runtime& runtime() const { return *runtime_; }
  int num_threads() const { return spec_->threads_per_block; }

  /// SIMT loop over n work items with an implicit trailing barrier.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    const auto threads = static_cast<std::size_t>(spec_->threads_per_block);
    double round_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      begin_item(i);
      fn(i);
      round_max = std::max(round_max, item_cycles_);
      ++counters_.items;
      if ((i + 1) % threads == 0) {
        close_round(round_max);
        round_max = 0.0;
      }
    }
    if (n % threads != 0 || n == 0) {
      // Final partial round - or, for n == 0, the empty round: every thread
      // still issues the zero-trip bounds check of the grid-stride loop, so
      // an empty launch costs one round of issue plus the barrier. Pinned
      // by gpusim tests; not a bug.
      close_round(round_max);
    }
    barrier();
  }

  /// Up to this many distinct early-outs per guarded sweep.
  static constexpr std::size_t kMaxExits = 4;

  /// The closed-form charge of an early-out taken after `instrs`
  /// instruction units and one charge_read(k) per entry of `reads`.
  FutileCost futile_cost(std::size_t instrs,
                         std::initializer_list<std::size_t> reads) const {
    FutileCost c;
    c.instrs = instrs;
    c.cycles += cost_->instr_cycles * static_cast<double>(instrs);
    for (const std::size_t k : reads) {
      c.cycles += cost_->global_read_cycles * static_cast<double>(k);
      c.reads += k;
    }
    return c;
  }

  /// parallel_for(n, fn) that charges items taking an early-out of
  /// `exits` in closed form instead of stepping them (see header comment).
  template <typename Exit, typename Fn>
  void parallel_for_guarded(std::size_t n, std::span<const FutileCost> exits,
                            Exit&& exit, Fn&& fn) {
    const ItemRange all{0, n};
    parallel_for_ranged(n, {&all, 1}, exits, exit, fn);
  }

  /// parallel_for_guarded where only items inside `ranges` (sorted,
  /// disjoint, within [0, n)) are classified; all others take exit 1.
  template <typename Exit, typename Fn>
  void parallel_for_ranged(std::size_t n, std::span<const ItemRange> ranges,
                           std::span<const FutileCost> exits, Exit&& exit,
                           Fn&& fn) {
    if (shadow_) {
      parallel_for(n, fn);
      return;
    }
    const auto threads = static_cast<std::size_t>(spec_->threads_per_block);
    const auto warp = static_cast<std::size_t>(spec_->warp_size);
    assert(!exits.empty() && exits.size() <= kMaxExits);
    std::size_t r = 0;  // first range that may still hold items
    std::size_t begin = 0;
    do {
      const std::size_t end = std::min(n, begin + threads);
      std::uint64_t taken[kMaxExits] = {};
      double round_max = 0.0;
      // Warp 0's window is not cleared at round start: as in parallel_for,
      // atomics charged since the last round close still share it.
      std::size_t current_warp = 0;
      std::size_t i = begin;
      while (i < end) {
        while (r < ranges.size() && ranges[r].end <= i) ++r;
        if (r == ranges.size() || ranges[r].begin >= end) {
          taken[0] += end - i;
          break;
        }
        if (ranges[r].begin > i) {
          taken[0] += ranges[r].begin - i;
          i = ranges[r].begin;
        }
        for (const std::size_t stop = std::min(ranges[r].end, end); i < stop;
             ++i) {
          const int k = exit(i);
          assert(k >= 0 && static_cast<std::size_t>(k) <= exits.size());
          if (k > 0) {
            ++taken[static_cast<std::size_t>(k - 1)];
            continue;
          }
          if (track_conflicts_) {
            // Exits issue no atomics: they only advance the warp position.
            const std::size_t lane = i - begin;
            if (lane / warp != current_warp) {
              window_.clear();
              current_warp = lane / warp;
            }
            items_in_warp_ = lane % warp;
          }
          begin_item(i);
          fn(i);
          round_max = std::max(round_max, item_cycles_);
          ++counters_.items;
        }
      }
      for (std::size_t k = 0; k < exits.size(); ++k) {
        if (taken[k] == 0) continue;
        counters_.items += taken[k];
        counters_.instrs += taken[k] * exits[k].instrs;
        counters_.global_reads += taken[k] * exits[k].reads;
        round_reads_ += taken[k] * exits[k].reads;
        round_max = std::max(round_max, exits[k].cycles);
      }
      close_round(round_max);
      begin = end;
    } while (begin < n);
    barrier();
  }

  /// Explicit __syncthreads() charge for multi-phase shared-memory steps.
  void barrier();

  // --- charging API (call from inside work items) -----------------------
  void charge_instr(std::size_t k = 1) {
    item_cycles_ += cost_->instr_cycles * static_cast<double>(k);
    counters_.instrs += k;
  }
  void charge_read(std::size_t k = 1) {
    item_cycles_ += cost_->global_read_cycles * static_cast<double>(k);
    counters_.global_reads += k;
    round_reads_ += k;
    if (shadow_) note_untracked(k);
  }
  void charge_write(std::size_t k = 1) {
    item_cycles_ += cost_->global_write_cycles * static_cast<double>(k);
    counters_.global_writes += k;
    round_writes_ += k;
    if (shadow_) note_untracked(k);
  }

  /// Addressed read of arr[idx..idx+k): identical cost and counters to the
  /// unaddressed form, plus hazard tracking of the touched elements.
  template <typename Arr>
  void charge_read(const Arr& arr, std::size_t idx, std::size_t k = 1) {
    item_cycles_ += cost_->global_read_cycles * static_cast<double>(k);
    counters_.global_reads += k;
    round_reads_ += k;
    if (shadow_) {
      track(HazardAccess::kRead, address_of(arr, idx), element_size(arr), k);
    }
  }

  /// Addressed write of arr[idx..idx+k).
  template <typename Arr>
  void charge_write(const Arr& arr, std::size_t idx, std::size_t k = 1) {
    item_cycles_ += cost_->global_write_cycles * static_cast<double>(k);
    counters_.global_writes += k;
    round_writes_ += k;
    if (shadow_) {
      track(HazardAccess::kWrite, address_of(arr, idx), element_size(arr), k);
    }
  }

  /// Queue-tail style counter atomics: on hardware these are warp-
  /// aggregated (one atomic per warp, Merrill et al.), so they are charged
  /// but never counted as same-address conflicts.
  void charge_atomic_aggregated() {
    item_cycles_ += cost_->atomic_cycles;
    ++counters_.atomics;
    ++round_atomics_;
    if (shadow_) note_untracked(1);
  }

  /// `address_key`: a stable id for the memory location - used to model
  /// same-address serialization when conflict tracking is on. The conflict
  /// window is one *warp* (the hardware serializes simultaneous
  /// same-address atomics within a warp; across warps they interleave
  /// through the memory pipeline).
  void charge_atomic(std::uint64_t address_key = 0) {
    item_cycles_ += cost_->atomic_cycles;
    ++counters_.atomics;
    ++round_atomics_;
    note_atomic_conflict(address_key);
    if (shadow_) note_untracked(1);
  }

  /// Addressed atomic RMW on arr[idx]. The element's host address doubles
  /// as the serialization key, so conflict counts match the unaddressed
  /// form exactly (the key remap is injective: distinct elements, distinct
  /// addresses). Atomics never hazard against each other or against reads.
  template <typename Arr>
  void charge_atomic(const Arr& arr, std::size_t idx) {
    const std::uint64_t address = address_of(arr, idx);
    item_cycles_ += cost_->atomic_cycles;
    ++counters_.atomics;
    ++round_atomics_;
    note_atomic_conflict(address);
    if (shadow_) track(HazardAccess::kAtomic, address, 0, 1);
  }

  const BlockCounters& counters() const { return counters_; }
  double cycles() const { return counters_.cycles; }

  /// The block's shadow journal, or null when the hazard detector was off
  /// at construction. Device/DeviceGroup fold these after the launch.
  const BlockHazardState* hazard_state() const;

 private:
  struct Shadow;  // shadow-memory window + journal, in block_context.cpp

  template <typename Arr>
  static std::uint64_t address_of(const Arr& arr, std::size_t idx) {
    return reinterpret_cast<std::uint64_t>(
        static_cast<const void*>(arr.data() + idx));
  }
  template <typename Arr>
  static constexpr std::size_t element_size(const Arr& arr) {
    return sizeof(*arr.data());
  }

  void begin_item(std::size_t item);
  void close_round(double round_max);
  void note_atomic_conflict(std::uint64_t address_key) {
    if (!track_conflicts_) return;
    if (!window_.insert(address_key)) {
      item_cycles_ += cost_->atomic_conflict_cycles;
      ++counters_.atomic_conflicts;
    }
  }

  /// The set of atomic addresses the current warp has issued: a flat
  /// open-addressed table whose clear() is O(1) (an epoch bump).
  class ConflictWindow {
   public:
    /// False when `key` is already in the window (a conflict).
    bool insert(std::uint64_t key) {
      if (2 * (size_ + 1) > keys_.size()) grow();
      for (std::size_t slot = home(key);; slot = (slot + 1) & mask_) {
        if (epochs_[slot] != epoch_) {
          epochs_[slot] = epoch_;
          keys_[slot] = key;
          ++size_;
          return true;
        }
        if (keys_[slot] == key) return false;
      }
    }
    void clear() {
      if (size_ == 0) return;
      size_ = 0;
      if (++epoch_ == 0) {  // wrapped: no stale slot may match epoch 1
        std::fill(epochs_.begin(), epochs_.end(), 0u);
        epoch_ = 1;
      }
    }

   private:
    std::size_t home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      shift_) & mask_;
    }
    void grow();

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> epochs_;
    std::uint32_t epoch_ = 1;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
  };
  // Shadow-pass helpers; only called when shadow_ is non-null.
  void note_untracked(std::size_t k);
  void track(HazardAccess kind, std::uint64_t address, std::size_t stride,
             std::size_t k);
  void note_access(HazardAccess kind, std::uint64_t address);

  const DeviceSpec* spec_;
  const CostModel* cost_;
  Runtime* runtime_;
  int block_id_;
  bool track_conflicts_;
  BlockCounters counters_;
  double item_cycles_ = 0.0;
  std::size_t round_reads_ = 0;
  std::size_t round_writes_ = 0;
  std::size_t round_atomics_ = 0;
  std::size_t items_in_warp_ = 0;
  ConflictWindow window_;
  std::uint64_t current_item_ = 0;
  bool in_item_ = false;
  std::unique_ptr<Shadow> shadow_;
};

}  // namespace bcdyn::sim
