#include "trace/trace.hpp"

#include <chrono>

namespace bcdyn::trace {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::set_enabled(bool on) {
  std::lock_guard lock(mu_);
  if (on && !enabled_ && epoch_ns_ == 0) epoch_ns_ = steady_ns();
  enabled_ = on;
}

double Tracer::now_us() const {
  std::lock_guard lock(mu_);
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

void Tracer::push(TraceEvent ev) {
  std::lock_guard lock(mu_);
  if (!enabled_) return;
  events_.push_back(std::move(ev));
}

void Tracer::push_host(TraceEvent ev) {
  std::lock_guard lock(mu_);
  if (!enabled_) return;
  // Stable per-thread track: threads get tids 0, 1, ... in first-use order.
  ev.tid = host_tids_
               .try_emplace(std::this_thread::get_id(),
                            static_cast<int>(host_tids_.size()))
               .first->second;
  events_.push_back(std::move(ev));
}

int Tracer::allocate_device_pid() {
  std::lock_guard lock(mu_);
  return next_device_pid_++;
}

void Tracer::begin(std::string_view name, std::string_view cat,
                   std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kBegin;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us();
  ev.args.assign(args.begin(), args.end());
  push_host(std::move(ev));
}

void Tracer::end() {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kEnd;
  ev.ts_us = now_us();
  push_host(std::move(ev));
}

void Tracer::complete(int pid, int tid, double ts_us, double dur_us,
                      std::string_view name, std::string_view cat,
                      std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  push(std::move(ev));
}

void Tracer::instant(std::string_view name, std::string_view cat,
                     std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us();
  ev.args.assign(args.begin(), args.end());
  push_host(std::move(ev));
}

void Tracer::counter(std::string_view name, double value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kCounter;
  ev.name = name;
  ev.ts_us = now_us();
  ev.args.push_back({"value", value});
  push_host(std::move(ev));
}

void Tracer::set_process_name(int pid, std::string name) {
  std::lock_guard lock(mu_);
  process_names_[pid] = std::move(name);
}

void Tracer::set_thread_name(int pid, int tid, std::string name) {
  std::lock_guard lock(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mu_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::map<int, std::string> Tracer::process_names() const {
  std::lock_guard lock(mu_);
  return process_names_;
}

std::map<std::pair<int, int>, std::string> Tracer::thread_names() const {
  std::lock_guard lock(mu_);
  return thread_names_;
}

Span::Span(Tracer& tracer, std::string_view name, std::string_view cat,
           std::initializer_list<TraceArg> args)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_) tracer_->begin(name, cat, args);
}

Span::~Span() {
  if (tracer_) tracer_->end();
}

}  // namespace bcdyn::trace
