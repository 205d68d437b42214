// A group of N independent simulated devices with per-device launch
// queues and cross-device work stealing of per-source jobs.
//
// The paper's coarse-grained decomposition (one source per thread block,
// §III) shards across *devices* exactly as it shards across SMs: per-source
// jobs are independent, so a multi-GPU driver can partition the source set,
// give every device its own work queue, and let a device that drains its
// queue steal from the peer with the most work left. The group models that
// directly:
//
//   * every device runs the launch_queue() discipline over its own queue
//     (greedy next-free-SM schedule with a per-job pop charge);
//   * when a device's queue is empty, each of its free SMs steals one job
//     from the *back* of the longest remaining peer queue, paying the
//     larger CostModel::steal_cycles charge (a queue-tail CAS over the
//     interconnect);
//   * the group's modeled makespan is the max over the devices' makespans.
//
// Host execution is decoupled from the modeled schedule: jobs run in job-id
// order on the calling thread, so results (scores, per-job counters, per-job
// cycles) are bit-identical for every device count and every steal pattern -
// only the modeled placements and makespans change. The whole schedule is
// deterministic: same jobs + same shards -> same placements, no RNG anywhere.
//
// Every device in the group records its own LaunchTimeline, sim.* metrics,
// and (when the tracer is on) per-SM trace tracks, exactly like a
// stand-alone Device; the group additionally records sim.group.* metrics.
// The group and its devices share one sim::Runtime.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "gpusim/device.hpp"

namespace bcdyn::sim {

/// Where one sharded job ran in the modeled group schedule. Cycle stamps
/// are relative to the start of the group launch's dispatch phase (setup is
/// charged into the per-device makespans, not the placements).
struct GroupJobPlacement {
  int device = 0;
  int sm = 0;
  double start_cycles = 0.0;
  double end_cycles = 0.0;  // includes the pop (or steal) charge
  bool stolen = false;      // ran on a device other than its initial shard
};

/// Result of one sharded group launch.
struct GroupLaunchResult {
  /// Counter totals summed across devices; makespan_cycles/seconds are the
  /// max over the devices (the devices run concurrently).
  KernelStats group;
  std::vector<KernelStats> per_device;        // indexed by device
  std::vector<GroupJobPlacement> placements;  // indexed by job id
  std::vector<int> jobs_per_device;           // executed there, incl. stolen
  int steals = 0;
  // Fault injection (zero unless a plan is active): jobs whose home device
  // was lost and were remapped onto survivors for this launch, and devices
  // that the loss poll at this launch's entry newly marked dead.
  int resharded_jobs = 0;
  int lost_devices = 0;
};

class DeviceGroup {
 public:
  /// `num_devices` identical devices of `spec`. Kernels execute inline on
  /// the calling thread in job-id order (see header comment).
  DeviceGroup(int num_devices, DeviceSpec spec, CostModel cost = {},
              bool track_atomic_conflicts = false,
              Runtime& runtime = Runtime::process());

  int num_devices() const { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return *devices_[static_cast<std::size_t>(i)]; }
  const Device& device(int i) const {
    return *devices_[static_cast<std::size_t>(i)];
  }
  const DeviceSpec& spec() const { return devices_.front()->spec(); }
  const CostModel& cost_model() const {
    return devices_.front()->cost_model();
  }

  /// Group makespan: the max over the devices' makespans, each of which is
  /// itself max(SM schedule end, copy-engine end) - the devices (and their
  /// copy engines) run concurrently.
  double makespan_cycles() const {
    double end = 0.0;
    for (const auto& d : devices_) {
      if (d->makespan_cycles() > end) end = d->makespan_cycles();
    }
    return end;
  }
  double makespan_seconds() const {
    return makespan_cycles() / (spec().clock_ghz * 1e9);
  }

  using JobKernel = Device::JobKernel;

  /// Runs `num_jobs` jobs sharded across the group. `initial_device[j]`
  /// names job j's home queue; `priority` (empty, or one entry per job)
  /// orders each queue highest-priority-first (stable by job id) - the LPT
  /// ordering the greedy schedule wants. Jobs execute on the host in job-id
  /// order regardless of the schedule; `kernel(ctx, j)` must key its work
  /// off j (ctx.block_id() is always 0 - execution is sequential, so one
  /// shared workspace is safe). When `per_job` is non-null it receives each
  /// job's counters, indexed by job id.
  GroupLaunchResult launch_sharded(int num_jobs,
                                   std::span<const int> initial_device,
                                   std::span<const std::int64_t> priority,
                                   const JobKernel& kernel,
                                   std::vector<BlockCounters>* per_job = nullptr,
                                   std::string_view name = {});

  // --- fault injection (gpusim/fault_injector.hpp) ----------------------
  // launch_sharded polls "devD.loss" for every live device at entry (then
  // "group.launch.<name>" for a whole-launch abort) before any host
  // execution. A lost device is dead for the group's lifetime: its homed
  // jobs reshard round-robin across survivors and the modeled schedule
  // runs over the survivors only. Host execution stays in job-id order, so
  // recovered scores are bit-identical to a loss-free run.

  /// True once fault injection marked device `i` lost.
  bool device_lost(int i) const {
    return lost_[static_cast<std::size_t>(i)] != 0;
  }
  int num_alive() const;

 private:
  /// Polls loss + abort sites and remaps lost-homed jobs; returns the
  /// (possibly remapped) shard and fills the reshard counters. Throws
  /// FaultError when every device is lost or the group launch aborts.
  std::vector<int> apply_faults(std::span<const int> initial_device,
                                std::string_view name, int* resharded_jobs,
                                int* lost_devices);

  std::vector<std::unique_ptr<Device>> devices_;
  Runtime& runtime_;
  bool track_conflicts_;
  std::vector<char> lost_;  // 1 = dead to fault injection, permanently
};

/// The deterministic scheduling core behind launch_sharded, exposed for
/// tests: simulates every device's SMs popping jobs off their own queue
/// (charging job_pop_cycles) and stealing from the back of the longest
/// remaining peer queue when theirs is empty (charging steal_cycles).
/// Ties - simultaneous free SMs, equally long victim queues - break toward
/// the lowest device/SM id, so the schedule is a pure function of its
/// inputs. Fills `group.makespan_cycles`/`per_device` makespans *without*
/// launch-setup charges; launch_sharded adds those.
GroupLaunchResult schedule_group(const std::vector<double>& job_cycles,
                                 std::span<const int> initial_device,
                                 std::span<const std::int64_t> priority,
                                 int num_devices, int num_sms,
                                 const CostModel& cost);

}  // namespace bcdyn::sim
