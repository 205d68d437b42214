// The system's flight recorder: a tracer (one per sim::Runtime) with
// nestable spans and typed timeline events, designed to be zero-overhead
// when disabled.
//
// Two timelines coexist in one trace, distinguished by pid:
//
//   pid 0 ("host")        B/E span events stamped with host wall time.
//                         One track (tid) per host thread; spans strictly
//                         nest per track.
//   pid 1+ ("device N")   X complete events on the *modeled-cycles* axis,
//                         one pid per sim::Device on the tracer's runtime
//                         (allocate_device_pid). Track (tid) s
//                         is SM s carrying the block/job placement
//                         timeline; a separate "launches" track carries one
//                         event per kernel launch. Successive launches on a
//                         device lay out back to back (the device keeps a
//                         running modeled-time origin), so the exported
//                         trace shows the whole run, not just one launch.
//
// Every recording method early-returns when the tracer is disabled, so an
// untraced run pays one relaxed atomic load per call site and allocates
// nothing; modeled results never depend on the tracer state.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bcdyn::trace {

inline constexpr int kHostPid = 0;
inline constexpr int kDevicePidBase = 1;  // pid of the first sim::Device
/// Device-pid track that carries one event per kernel launch (SM tracks
/// use tids [0, num_sms)).
inline constexpr int kLaunchTrackTid = 1000000;
/// Device-pid track for the copy (DMA) engine: one complete event per
/// modeled H2D/D2H transfer (gpusim/stream.hpp).
inline constexpr int kCopyEngineTid = 2000000;
/// Per-stream timelines: stream `s` mirrors its ops on tid
/// kStreamTrackBase + s of its device's pid.
inline constexpr int kStreamTrackBase = 1500000;

/// A numeric key/value attached to an event (shown in chrome://tracing's
/// argument pane and consumed by the report/validators).
struct TraceArg {
  std::string key;
  double value = 0.0;
};

struct TraceEvent {
  enum class Phase : std::uint8_t {
    kBegin,     // host span open ("B")
    kEnd,       // host span close ("E")
    kComplete,  // explicit interval ("X"), used for modeled timelines
    kInstant,   // point event ("i")
    kCounter,   // counter sample ("C")
  };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string cat;
  double ts_us = 0.0;   // host: wall us since tracer epoch; device: modeled us
  double dur_us = 0.0;  // kComplete only
  int pid = kHostPid;
  int tid = 0;
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  bool enabled() const {
    // Relaxed fast path; recording methods re-check under the lock.
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on);

  /// Host wall time in microseconds since the tracer epoch.
  double now_us() const;

  // --- host spans (B/E on the calling thread's track) -------------------
  void begin(std::string_view name, std::string_view cat,
             std::initializer_list<TraceArg> args = {});
  void end();

  // --- explicit timeline events (modeled time, any track) ---------------
  void complete(int pid, int tid, double ts_us, double dur_us,
                std::string_view name, std::string_view cat,
                std::vector<TraceArg> args = {});

  void instant(std::string_view name, std::string_view cat,
               std::initializer_list<TraceArg> args = {});
  void counter(std::string_view name, double value);

  // --- track naming (metadata; recorded even while disabled) ------------
  /// The next device pid: kDevicePidBase, kDevicePidBase + 1, ... in the
  /// order the runtime's devices were constructed.
  int allocate_device_pid();
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;
  std::map<int, std::string> process_names() const;
  std::map<std::pair<int, int>, std::string> thread_names() const;

 private:
  /// Stamps the calling thread's host track (assigned on first use) and
  /// appends the event while enabled.
  void push_host(TraceEvent ev);
  void push(TraceEvent ev);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;
  int next_device_pid_ = kDevicePidBase;
  std::map<std::thread::id, int> host_tids_;
  std::vector<TraceEvent> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
};

/// RAII host span on `tracer`: opens on construction (if tracing is
/// enabled at that moment), closes on destruction. Safe to use
/// unconditionally.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::string_view cat,
       std::initializer_list<TraceArg> args = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;  // null when the span did not open
};

}  // namespace bcdyn::trace
