// In-memory span log for the benchmark's traced runs.
//
// Each span brackets one call the benchmark itself makes into a layer's
// public functions (the library is not instrumented for this). A span has
// a name, start and end on the steady clock, the index of the span that
// caused it (-1 for a top-level call), and the id of the update it belongs
// to. Spans stay in memory while the workload runs and are written out as
// JSON lines once it ends, so writing them costs nothing inside the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>"; always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t update = -1;
};

class SpanLog {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int open(const char* name, std::int64_t update, int parent = -1) {
    records_.push_back({name, now_ns(), 0, parent, update});
    return static_cast<int>(records_.size()) - 1;
  }
  void close(int id) {
    records_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  /// Records a span whose endpoints the caller already measured.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          std::int64_t update, int parent = -1) {
    records_.push_back({name, start_ns, end_ns, parent, update});
    return static_cast<int>(records_.size()) - 1;
  }

  /// Opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t update, int parent = -1)
        : log_(log), id_(log.open(name, update, parent)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_;
  };

  /// Summed duration of every span called `name`, in seconds.
  double seconds(std::string_view name) const {
    std::int64_t ns = 0;
    for (const auto& r : records_) {
      if (name == r.name) ns += r.end_ns - r.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  std::size_t count(std::string_view name) const {
    std::size_t n = 0;
    for (const auto& r : records_) n += name == r.name ? 1 : 0;
    return n;
  }

  void write_jsonl(std::ostream& out) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << r.name
          << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"parent\":" << r.parent << ",\"update\":" << r.update
          << "}\n";
    }
  }

 private:
  std::vector<SpanRecord> records_;
};

}  // namespace perfbench
