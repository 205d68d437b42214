// bcdyn's repository benchmark: what one dynamic-BC update costs, end to
// end and layer by layer.
//
//   bcbench --workload edge-stream --seed 1 --seconds 30 --trace 0
//
// Three workloads drive the public API (bc::Session, bc::Service) from one
// single-threaded process; the simulator runs inline. The graph and the op
// stream are a pure function of --seed and are generated before any clock
// starts. See README.md in this directory for why each workload exists and
// which metric each layer should move.
//
// --trace 0 measures the end-to-end metrics: repeated set-up (median), then
// a closed loop of operations for --seconds. --trace 1 measures the
// per-layer metrics: one untraced segment, then a traced segment in which
// the benchmark records spans around its own calls and replays every write
// on a mirror built from the layers' public functions (DynamicGraph,
// classify_insertion, the engines, the batch path), so each layer is timed
// and counted where its work happens.
//
// Every run ends with a correctness gate; a failed check sets "correct" to
// false and the exit code to 1. The last line of stdout is the result
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bc/api.hpp"
#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/case_classify.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "bc/sharded_gpu.hpp"
#include "bc/static_gpu.hpp"
#include "gen/suite.hpp"
#include "gpusim/cost_model.hpp"
#include "graph/dynamic_graph.hpp"
#include "span_log.hpp"
#include "trace/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using bcdyn::CSRGraph;
using bcdyn::EngineKind;
using bcdyn::UpdateOutcome;
using bcdyn::VertexId;
using bcdyn::bc::Request;
using bcdyn::bc::RequestKind;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  EngineKind engine;
  double scale;  // gen::build_suite_graph("pref", scale, seed)
  int sources;
  int devices;
  bool serve;  // bc::Service request stream instead of per-edge Session calls
  /// Operations (writes on the streams, requests on serve-mixed) whose
  /// modeled metrics are reported. A run never stops before this prefix,
  /// so the modeled metrics are exact for a seed whatever the host speed.
  std::size_t min_ops;
  /// Generous ceiling on the host rate; sizes the pre-generated stream.
  double max_ops_per_second;
  /// ops_per_s is the median rate over windows of this many operations
  /// (serve-mixed: one window per Service::run burst), so a burst of
  /// interference from outside the process moves few windows.
  std::size_t window_ops;
  int setup_reps;
  /// verify_against_recompute() bound, relative to the largest score.
  double tolerance;
  /// The seed a run uses when none is given, and the held-out seed that
  /// claims of a gain are checked on before they are accepted.
  std::uint64_t default_seed;
  std::uint64_t heldout_seed;
};

constexpr double kRemoveFrac = 0.25;       // streams: share of writes
constexpr double kServeReadFrac = 0.9;     // serve-mixed request mix
constexpr double kServeRemoveFrac = 0.3;   // serve-mixed: share of writes
constexpr int kServeClients = 4;
constexpr double kServeInterarrival = 5e-6;  // virtual seconds
// serve-mixed arrives in bursts of kServeChunk requests, one Service::run
// call each. A quiet gap follows every burst: run() flushes the write
// buffer at the coalescing-window deadline, and without the gap the next
// burst's reads would queue behind that dispatch and be shed.
constexpr std::size_t kServeChunk = 512;
constexpr double kServeBurstGap = 2e-3;  // virtual seconds; > window + commit
constexpr double kShareSumTolerance = 0.05;

// Sizes follow bcdyn's own suite scale (scale 1: n ~ 20k, m ~ 100k).
constexpr Workload kWorkloads[] = {
    // The paper's edge-parallel update: simulator stepping dominates host
    // time, the graph layer is a few percent.
    {"edge-stream", EngineKind::kGpuEdge, 0.1, 32, 1, false, 400, 400.0, 20, 11,
     1e-9, 1, 1001},
    // Green et al.'s CPU update on a 10x larger graph: no simulator runs and
    // structure maintenance (the CSR rebuild) dominates host time.
    {"structure-stream", EngineKind::kCpu, 1.0, 64, 1, false, 800, 1000.0, 40,
     9, 1e-9, 2, 1002},
    // Reads beside coalesced writes: fused node-parallel batches on the
    // sharded two-device path, the only workload that runs the batch and
    // service layers. 1e-7 is the repo's fused-batch contract.
    {"serve-mixed", EngineKind::kGpuNode, 1.0, 64, 2, true, 12288, 2000.0,
     kServeChunk, 7, 1e-7, 3, 1003},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

// ---------------------------------------------------------------------------
// Input generation (a pure function of the graph and the seed)

std::uint64_t edge_key(VertexId u, VertexId v) {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (lo << 32) | hi;
}

/// Draws new edges and removals of earlier inserts, so every write in the
/// stream applies (no op fails on a healthy build).
class EdgePicker {
 public:
  EdgePicker(const CSRGraph& g, std::uint64_t seed) : g_(g), rng_(seed) {}

  bcdyn::util::Rng& rng() { return rng_; }
  bool has_live() const { return !live_.empty(); }

  std::pair<VertexId, VertexId> new_edge() {
    const auto n = static_cast<std::uint64_t>(g_.num_vertices());
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto u = static_cast<VertexId>(rng_.next_below(n));
      const auto v = static_cast<VertexId>(rng_.next_below(n));
      if (u == v || g_.has_edge(u, v) || live_keys_.contains(edge_key(u, v))) {
        continue;
      }
      live_.emplace_back(u, v);
      live_keys_.insert(edge_key(u, v));
      return {u, v};
    }
    throw std::runtime_error("graph too dense to draw a new edge");
  }

  std::pair<VertexId, VertexId> earlier_insert() {
    const auto pick = static_cast<std::size_t>(
        rng_.next_below(static_cast<std::uint64_t>(live_.size())));
    const auto edge = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    live_keys_.erase(edge_key(edge.first, edge.second));
    return edge;
  }

 private:
  const CSRGraph& g_;
  bcdyn::util::Rng rng_;
  std::vector<std::pair<VertexId, VertexId>> live_;
  std::unordered_set<std::uint64_t> live_keys_;
};

struct Op {
  bool insert = true;
  VertexId u = 0;
  VertexId v = 0;
};

std::vector<Op> make_ops(const CSRGraph& g, std::uint64_t seed,
                         std::size_t count) {
  EdgePicker picker(g, seed ^ 0x0b5e55edULL);
  std::vector<Op> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    if (picker.has_live() && picker.rng().next_double() < kRemoveFrac) {
      const auto [u, v] = picker.earlier_insert();
      ops.push_back({false, u, v});
    } else {
      const auto [u, v] = picker.new_edge();
      ops.push_back({true, u, v});
    }
  }
  return ops;
}

/// Round-robin clients, fixed virtual interarrival within a burst, split
/// into the bursts the closed loop feeds to Service::run one at a time.
std::vector<std::vector<Request>> make_requests(const CSRGraph& g,
                                                std::uint64_t seed,
                                                std::size_t count) {
  EdgePicker picker(g, seed ^ 0x5e21e77ULL);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::vector<std::vector<Request>> chunks;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kServeChunk == 0) {
      chunks.emplace_back();
      chunks.back().reserve(kServeChunk);
    }
    Request req;
    req.client_id = static_cast<int>(i % kServeClients);
    req.arrival_time = kServeInterarrival * static_cast<double>(i + 1) +
                       kServeBurstGap * static_cast<double>(i / kServeChunk);
    auto& rng = picker.rng();
    if (rng.next_double() < kServeReadFrac) {
      req.kind = RequestKind::kRead;
      req.u = static_cast<VertexId>(rng.next_below(n));
    } else if (picker.has_live() && rng.next_double() < kServeRemoveFrac) {
      req.kind = RequestKind::kRemove;
      std::tie(req.u, req.v) = picker.earlier_insert();
    } else {
      req.kind = RequestKind::kInsert;
      std::tie(req.u, req.v) = picker.new_edge();
    }
    chunks.back().push_back(req);
  }
  return chunks;
}

// ---------------------------------------------------------------------------
// Checks and per-layer tallies

/// Correctness gate: every failed check is counted and fails the run.
struct Checks {
  std::map<std::string, int> failures;  // what failed -> how often
  void expect(bool ok, const std::string& what) {
    if (!ok) ++failures[what];
  }
};

/// Work counted on the traced mirror, at the layer that does it.
struct Tally {
  double items = 0, reads = 0, atomics = 0, rounds = 0;
  double launches = 0, blocks = 0;
  std::uint64_t batch_commits = 0, batch_jobs = 0, batch_fallbacks = 0;

  void add(const bcdyn::sim::KernelStats& s) {
    items += static_cast<double>(s.total.items);
    reads += static_cast<double>(s.total.global_reads);
    atomics += static_cast<double>(s.total.atomics);
    rounds += static_cast<double>(s.total.rounds);
    launches += s.launches;
    blocks += s.num_blocks;
  }
};

bcdyn::bc::Options session_options(const Workload& w,
                                   const bcdyn::ApproxConfig& approx) {
  bcdyn::bc::Options o;
  o.engine = w.engine;
  o.approx = approx;
  o.num_devices = w.devices;
  return o;
}

/// Classifies {u, v} against every source's current distance row.
void classify_rows(const bcdyn::BcStore& store, VertexId u, VertexId v,
                   int counts[3]) {
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto info = bcdyn::classify_insertion(store.dist_row(si), u, v);
    ++counts[static_cast<int>(info.update_case) - 1];
  }
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Mirrors: the same writes replayed through the layers' public functions

/// The analytic rebuilt from the layers' public functions, with the same
/// options as the Session it mirrors and the same engine dispatch as
/// DynamicBc: the CPU engine, one device, or a sharded device group.
class Mirror {
 public:
  Mirror(const CSRGraph& g, const bcdyn::bc::Options& options)
      : dyn_(bcdyn::DynamicGraph::from_csr(g)),
        csr_(g),
        store_(g.num_vertices(), options.approx),
        batch_config_{.recompute_threshold =
                          options.batch_recompute_threshold} {
    const bcdyn::Parallelism mode = options.engine == EngineKind::kGpuEdge
                                        ? bcdyn::Parallelism::kEdge
                                        : bcdyn::Parallelism::kNode;
    if (options.engine == EngineKind::kCpu) {
      cpu_.emplace(g.num_vertices());
      bcdyn::brandes_all(csr_, store_);
    } else if (options.num_devices > 1) {
      sharded_.emplace(options.num_devices, options.device_spec, mode,
                       bcdyn::sim::CostModel{}, options.track_atomic_conflicts,
                       options.shard_policy);
      sharded_->compute(csr_, store_);
    } else {
      gpu_.emplace(options.device_spec, mode, bcdyn::sim::CostModel{}, 0,
                   options.track_atomic_conflicts);
      bcdyn::StaticGpuBc(options.device_spec, mode, bcdyn::sim::CostModel{}, 0,
                         options.track_atomic_conflicts)
          .compute(csr_, store_);
    }
  }

  std::span<const double> scores() const { return store_.bc(); }

  /// One single-edge write, as DynamicBc::insert_edge / remove_edge applies
  /// it. Fills `cases` with classify_insertion's verdicts over the k rows
  /// and returns the engine's modeled seconds.
  double apply_edge(bool insert, VertexId u, VertexId v, std::int64_t id,
                    int parent, SpanLog& log, Tally& tally, Checks& checks,
                    int cases[3]) {
    bool applied = false;
    {
      SpanLog::Scope s(log, "graph.mutate", id, parent);
      applied = insert ? dyn_.insert_edge(u, v) : dyn_.remove_edge(u, v);
    }
    checks.expect(applied, "mirror rejected a write the session applied");
    if (!applied) return 0.0;
    {
      SpanLog::Scope s(log, "graph.snapshot", id, parent);
      csr_ = dyn_.snapshot_csr();
    }
    {
      SpanLog::Scope s(log, "classify", id, parent);
      classify_rows(store_, u, v, cases);
    }
    SpanLog::Scope s(log, "kernel", id, parent);
    return run_kernel(insert, u, v, tally);
  }

  /// One fused insert commit, as DynamicBc::insert_edge_batch applies it.
  /// Returns the modeled seconds; adds the jobs that fell back to a
  /// recompute to `fallbacks`.
  double apply_batch(std::span<const Request> writes, std::int64_t id,
                     int parent, SpanLog& log, Tally& tally, Checks& checks,
                     int& fallbacks) {
    std::vector<std::pair<VertexId, VertexId>> accepted;
    {
      SpanLog::Scope s(log, "graph.mutate", id, parent);
      for (const Request& r : writes) {
        if (dyn_.insert_edge(r.u, r.v)) accepted.emplace_back(r.u, r.v);
      }
    }
    checks.expect(accepted.size() == writes.size(),
                  "mirror rejected a coalesced insert");
    if (accepted.empty()) return 0.0;
    bcdyn::BatchSnapshots batch;
    {
      SpanLog::Scope s(log, "graph.snapshot", id, parent);
      batch = bcdyn::build_batch_snapshots(csr_, accepted);
      csr_ = batch.final_graph();
    }
    {
      SpanLog::Scope s(log, "classify", id, parent);
      int cases[3] = {0, 0, 0};
      for (const auto& [u, v] : accepted) classify_rows(store_, u, v, cases);
    }
    auto& reg = bcdyn::trace::metrics();
    const std::uint64_t jobs_before = reg.counter_value("batch.jobs.count");
    double modeled = 0.0;
    {
      SpanLog::Scope s(log, "batch", id, parent);
      checks.expect(sharded_.has_value(), "fused commits need a device group");
      if (!sharded_) return 0.0;
      const bcdyn::ShardedBatchResult r =
          sharded_->insert_edge_batch(batch, store_, batch_config_);
      tally.add(r.launch.group);
      modeled = r.launch.group.seconds;
      for (const auto& o : r.outcomes) fallbacks += o.recomputed ? 1 : 0;
    }
    ++tally.batch_commits;
    tally.batch_jobs += reg.counter_value("batch.jobs.count") - jobs_before;
    tally.batch_fallbacks += static_cast<std::uint64_t>(fallbacks);
    return modeled;
  }

 private:
  double run_kernel(bool insert, VertexId u, VertexId v, Tally& tally) {
    if (sharded_) {
      const bcdyn::ShardedUpdateResult r =
          insert ? sharded_->insert_edge_update(csr_, store_, u, v)
                 : sharded_->remove_edge_update(csr_, store_, u, v);
      tally.add(r.launch.group);
      return r.launch.group.seconds;
    }
    if (gpu_) {
      const bcdyn::GpuUpdateResult r =
          insert ? gpu_->insert_edge_update(csr_, store_, u, v)
                 : gpu_->remove_edge_update(csr_, store_, u, v);
      tally.add(r.stats);
      return r.stats.seconds;
    }
    cpu_->reset_counters();
    for (int si = 0; si < store_.num_sources(); ++si) {
      const VertexId s = store_.sources()[static_cast<std::size_t>(si)];
      if (insert) {
        cpu_->update_source(csr_, s, store_.dist_row(si), store_.sigma_row(si),
                            store_.delta_row(si), store_.bc(), u, v);
      } else {
        cpu_->remove_update_source(csr_, s, store_.dist_row(si),
                                   store_.sigma_row(si), store_.delta_row(si),
                                   store_.bc(), u, v);
      }
    }
    const bcdyn::CpuOpCounters& c = cpu_->counters();
    return bcdyn::sim::cpu_seconds(bcdyn::sim::CostModel{}, c.instrs, c.reads,
                                   c.writes);
  }

  bcdyn::DynamicGraph dyn_;
  CSRGraph csr_;
  bcdyn::BcStore store_;
  bcdyn::BatchConfig batch_config_;
  std::optional<bcdyn::DynamicCpuEngine> cpu_;
  std::optional<bcdyn::DynamicGpuBc> gpu_;
  std::optional<bcdyn::ShardedGpuBc> sharded_;
};

/// Replays one Service commit on the mirror: `writes` are the client
/// writes it coalesced, in the order the Service applied them.
void replay_commit(Mirror& mirror, const UpdateOutcome& commit,
                   std::span<const Request> writes, SpanLog& log, Tally& tally,
                   Checks& checks) {
  const auto id = static_cast<std::int64_t>(commit.epoch);
  SpanLog::Scope top(log, "mirror.commit", id);
  double modeled = 0.0;
  int fallbacks = 0;
  if (writes.front().kind == RequestKind::kInsert && writes.size() >= 2) {
    modeled = mirror.apply_batch(writes, id, top.id(), log, tally, checks,
                                 fallbacks);
  } else {
    for (const Request& r : writes) {
      int cases[3] = {0, 0, 0};
      modeled += mirror.apply_edge(r.kind == RequestKind::kInsert, r.u, r.v,
                                   id, top.id(), log, tally, checks, cases);
    }
  }
  checks.expect(fallbacks == commit.recomputed_sources,
                "mirror batch fallbacks differ from the commit's");
  checks.expect(modeled == commit.modeled_seconds,
                "mirror modeled seconds differ from the commit's");
}

// ---------------------------------------------------------------------------
// Runs

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// What one segment measured. The streams fill the per-write fields; the
/// service fills the per-commit and request fields too.
struct Segment {
  std::size_t ops = 0;  // writes on the streams, requests on serve-mixed
  std::size_t failed = 0;
  std::size_t writes = 0;
  std::vector<double> window_rates;  // operations per second, per window
  std::vector<double> write_seconds;  // per Session call / per commit
  UpdateOutcome total;                // every write or commit, absorbed
  std::size_t commits = 0;
  double run_seconds = 0.0;  // serve: summed Service::run wall

  // Deterministic: measured on the first min_ops operations only.
  double prefix_modeled_seconds = 0.0;
  std::size_t prefix_writes = 0;
  bcdyn::bc::ServiceStats prefix_stats;

  // Traced segment only.
  SpanLog log;
  Tally tally;
  double session_call_seconds = 0.0;  // streams: summed Session call wall
};

void gate_scores(const Workload& w, bcdyn::bc::Session& session, bool corrupt,
                 Checks& checks) {
  const auto scores = session.analytic().store().bc();
  double top = 0.0;
  for (double x : scores) top = std::max(top, std::abs(x));
  // Self-check only: perturb one score so the gate below must trip.
  if (corrupt) scores[0] += 1e-3 * top + 1.0;
  const double error = session.verify_against_recompute();
  std::fprintf(stderr, "verify: max abs error %.3g on scores up to %.6g\n",
               error, top);
  checks.expect(top > 0.0, "all scores are zero");
  checks.expect(error <= w.tolerance * top,
                "scores drifted from a static recompute");
}

struct Config {
  std::size_t min_ops = 0;
  double seconds = 0.0;
  std::size_t window_ops = 0;
};

/// Wall time of a closed loop, minus the intervals the benchmark spends on
/// its own work inside the loop (mirror replay, stats collection).
class LoopClock {
 public:
  double elapsed() const {
    return static_cast<double>(SpanLog::now_ns() - start_) * 1e-9;
  }
  double active() const { return elapsed() - excluded_; }
  void exclude_since(std::int64_t t0) {
    excluded_ += static_cast<double>(SpanLog::now_ns() - t0) * 1e-9;
  }
  /// Closes the current window after `ops` operations and records its rate.
  void end_window(std::size_t ops, std::vector<double>& rates) {
    const double now = active();
    if (ops > 0) {
      rates.push_back(static_cast<double>(ops) / (now - window_start_));
    }
    window_start_ = now;
  }

 private:
  std::int64_t start_ = SpanLog::now_ns();
  double excluded_ = 0.0;
  double window_start_ = 0.0;
};

Segment run_stream(bcdyn::bc::Session& session, const std::vector<Op>& ops,
                   const Config& cfg, Mirror* mirror, Checks& checks) {
  Segment seg;
  seg.write_seconds.reserve(ops.size());
  LoopClock clock;
  std::size_t window = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i >= cfg.min_ops && clock.elapsed() >= cfg.seconds) break;
    const Op& op = ops[i];
    const std::int64_t t0 = SpanLog::now_ns();
    const UpdateOutcome out = op.insert ? session.insert_edge(op.u, op.v)
                                        : session.remove_edge(op.u, op.v);
    const std::int64_t t1 = SpanLog::now_ns();
    ++seg.ops;
    seg.write_seconds.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (out.inserted == 0) ++seg.failed;
    seg.writes += static_cast<std::size_t>(out.inserted);
    seg.total.absorb(out);
    if (i < cfg.min_ops) {
      seg.prefix_modeled_seconds += out.modeled_seconds;
      seg.prefix_writes += static_cast<std::size_t>(out.inserted);
    }
    if (mirror != nullptr) {
      const auto id = static_cast<std::int64_t>(i);
      seg.log.add(op.insert ? "session.insert_edge" : "session.remove_edge", t0,
                  t1, id);
      const std::int64_t m0 = SpanLog::now_ns();
      if (out.inserted != 0) {
        SpanLog::Scope top(seg.log, "mirror.update", id);
        int cases[3] = {0, 0, 0};
        const double modeled =
            mirror->apply_edge(op.insert, op.u, op.v, id, top.id(), seg.log,
                               seg.tally, checks, cases);
        checks.expect(modeled == out.modeled_seconds,
                      "mirror modeled seconds differ from the session's");
        checks.expect(!op.insert || (cases[0] == out.case1 &&
                                     cases[1] == out.case2 &&
                                     cases[2] == out.case3),
                      "classify_insertion disagrees with the session's cases");
      }
      clock.exclude_since(m0);
    }
    if (++window == cfg.window_ops) {
      clock.end_window(window, seg.window_rates);
      window = 0;
    }
  }
  clock.end_window(window, seg.window_rates);
  seg.session_call_seconds = seg.log.seconds("session.insert_edge") +
                             seg.log.seconds("session.remove_edge");
  return seg;
}

Segment run_serve(bcdyn::bc::Service& service,
                  std::vector<std::vector<Request>> chunks, const Config& cfg,
                  Mirror* mirror, Checks& checks) {
  Segment seg;
  LoopClock clock;
  std::size_t mirrored = 0;  // commits already replayed on the mirror
  std::vector<Request> pending;  // writes not yet matched to a commit
  std::size_t pending_head = 0;
  const std::size_t prefix_chunks =
      (cfg.min_ops + kServeChunk - 1) / kServeChunk;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (c >= prefix_chunks && clock.elapsed() >= cfg.seconds) break;
    const std::int64_t t0 = SpanLog::now_ns();
    const std::vector<bcdyn::bc::Response> responses =
        service.run(std::move(chunks[c]));
    const std::int64_t t1 = SpanLog::now_ns();
    seg.run_seconds += static_cast<double>(t1 - t0) * 1e-9;
    seg.ops += responses.size();
    for (const auto& r : responses) {
      if (r.shed) ++seg.failed;
      if (r.kind != RequestKind::kRead && mirror != nullptr) {
        pending.push_back({r.client_id, r.arrival_time, r.kind, r.u, r.v});
      }
    }
    const auto& commits = service.commits();
    for (std::size_t k = seg.commits; k < commits.size(); ++k) {
      const UpdateOutcome& commit = commits[k];
      seg.write_seconds.push_back(commit.structure_wall_seconds +
                                  commit.update_wall_seconds);
      seg.writes += static_cast<std::size_t>(commit.inserted);
      seg.failed += static_cast<std::size_t>(
          std::max(0, commit.coalesced_updates - commit.inserted));
      seg.total.absorb(commit);
      if (c < prefix_chunks) {
        seg.prefix_modeled_seconds += commit.modeled_seconds;
        seg.prefix_writes += static_cast<std::size_t>(commit.inserted);
      }
    }
    seg.commits = commits.size();
    if (c + 1 == prefix_chunks) {
      const std::int64_t s0 = SpanLog::now_ns();
      seg.prefix_stats = service.stats();  // sorts read latencies: untimed
      clock.exclude_since(s0);
    }
    if (mirror != nullptr) {
      seg.log.add("service.run", t0, t1, static_cast<std::int64_t>(c));
      const std::int64_t m0 = SpanLog::now_ns();
      for (; mirrored < commits.size(); ++mirrored) {
        const auto n =
            static_cast<std::size_t>(commits[mirrored].coalesced_updates);
        if (n == 0 || pending_head + n > pending.size()) {
          checks.expect(false, "a commit holds writes the stream never sent");
          break;
        }
        const auto writes =
            std::span<const Request>(pending).subspan(pending_head, n);
        replay_commit(*mirror, commits[mirrored], writes, seg.log, seg.tally,
                      checks);
        pending_head += n;
      }
      clock.exclude_since(m0);
    }
    clock.end_window(responses.size(), seg.window_rates);
  }
  checks.expect(pending_head == pending.size(),
                "mirror left client writes unmatched to commits");
  return seg;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double value_of(const std::vector<Metric>& metrics, std::string_view name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("no metric " + std::string(name));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Modeled metrics that must match exactly between any two runs of a seed.
double modeled_us_per_write(const Segment& s) {
  return 1e6 * ratio(s.prefix_modeled_seconds,
                     static_cast<double>(s.prefix_writes));
}

std::vector<Metric> end_to_end_metrics(const Segment& s, double setup_s) {
  const double writes = static_cast<double>(s.write_seconds.size());
  std::fprintf(stderr,
               "samples: %zu ops, %.0f write latencies (p95 has %.0f beyond)\n",
               s.ops, writes, std::floor(0.05 * writes));
  return {
      {"ops_per_s", median(s.window_rates), "1/s"},
      {"write_p50_ms", 1e3 * quantile(s.write_seconds, 0.50), "ms"},
      {"write_p95_ms", 1e3 * quantile(s.write_seconds, 0.95), "ms"},
      {"modeled_us_per_write", modeled_us_per_write(s), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Workload& w,
                                      const Segment& untraced,
                                      const Segment& t) {
  const double writes = static_cast<double>(t.writes);
  const double commits = static_cast<double>(t.commits);
  const double cases =
      static_cast<double>(t.total.case1 + t.total.case2 + t.total.case3);
  const double commit_wall =
      t.total.structure_wall_seconds + t.total.update_wall_seconds;
  // Streams: shares of the Session call; serve: shares of commit wall.
  const double call_wall = w.serve ? commit_wall : t.session_call_seconds;
  const double kernel_span = t.log.seconds("kernel") + t.log.seconds("batch");
  const auto& ps = t.prefix_stats;
  return {
      {"graph.structure_ms_per_write",
       1e3 * ratio(t.total.structure_wall_seconds, writes), "ms"},
      {"graph.structure_share",
       ratio(t.total.structure_wall_seconds, call_wall), "fraction"},
      {"graph.snapshot_ms",
       1e3 * ratio(t.log.seconds("graph.snapshot"),
                   static_cast<double>(t.log.count("graph.snapshot"))),
       "ms"},
      {"graph.mutate_us", 1e6 * ratio(t.log.seconds("graph.mutate"), writes),
       "us"},
      {"classify.us_per_write", 1e6 * ratio(t.log.seconds("classify"), writes),
       "us"},
      {"classify.useful_frac",
       ratio(static_cast<double>(t.total.case2 + t.total.case3), cases),
       "fraction"},
      {"classify.case3_frac", ratio(static_cast<double>(t.total.case3), cases),
       "fraction"},
      {"kernel.host_ms_per_write",
       1e3 * ratio(t.total.update_wall_seconds, writes), "ms"},
      {"kernel.share", ratio(t.total.update_wall_seconds, call_wall),
       "fraction"},
      {"gpusim.items_per_write", ratio(t.tally.items, writes), "count"},
      {"gpusim.reads_per_write", ratio(t.tally.reads, writes), "count"},
      {"gpusim.atomics_per_write", ratio(t.tally.atomics, writes), "count"},
      {"gpusim.rounds_per_write", ratio(t.tally.rounds, writes), "count"},
      {"gpusim.host_ns_per_item", 1e9 * ratio(kernel_span, t.tally.items),
       "ns"},
      {"gpusim.launches_per_write", ratio(t.tally.launches, writes), "count"},
      {"gpusim.blocks_per_write", ratio(t.tally.blocks, writes), "count"},
      {"batch.jobs_per_commit",
       ratio(static_cast<double>(t.tally.batch_jobs),
             static_cast<double>(t.tally.batch_commits)),
       "count"},
      {"batch.fallback_frac",
       ratio(static_cast<double>(t.tally.batch_fallbacks),
             static_cast<double>(t.tally.batch_jobs)),
       "fraction"},
      {"service.frontend_share",
       w.serve ? ratio(t.run_seconds - commit_wall, t.run_seconds) : 0.0,
       "fraction"},
      {"service.writes_per_commit",
       w.serve ? ratio(static_cast<double>(t.total.coalesced_updates), commits)
               : 0.0,
       "count"},
      {"service.reads_shed_frac",
       ratio(static_cast<double>(ps.reads_shed), static_cast<double>(ps.reads)),
       "fraction"},
      {"service.queue_peak", static_cast<double>(ps.queue_peak), "count"},
      {"service.modeled_makespan_ms", 1e3 * ps.makespan_seconds, "ms"},
      {"service.read_p99_modeled_us", 1e6 * ps.read_p99_seconds, "us"},
      {"trace.overhead_frac",
       1.0 - median(t.window_rates) / median(untraced.window_rates),
       "fraction"},
  };
}

// ---------------------------------------------------------------------------
// Command line and the run

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  // Development and self-check overrides of the workload's sizes.
  std::optional<double> scale;
  std::optional<int> sources;
  std::optional<std::size_t> min_ops;
  std::optional<int> setup_reps;
  bool corrupt = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (key == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + std::string(key));
    }
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = std::stoi(value) != 0;
    else if (key == "--scale") a.scale = std::stod(value);
    else if (key == "--sources") a.sources = std::stoi(value);
    else if (key == "--min-ops") a.min_ops = std::stoull(value);
    else if (key == "--setup-reps") a.setup_reps = std::stoi(value);
    else if (key == "--spans") a.spans_path = value;
    else throw std::invalid_argument("unknown flag " + std::string(key));
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

template <typename Make>
auto timed_setup(int reps, std::vector<double>& seconds, Make make) {
  decltype(make()) kept;
  for (int r = 0; r < reps; ++r) {
    kept.reset();  // at most one instance alive, so peak RSS is one set-up
    const std::int64_t t0 = SpanLog::now_ns();
    kept = make();
    seconds.push_back(static_cast<double>(SpanLog::now_ns() - t0) * 1e-9);
  }
  return kept;
}

int run(const Args& args) {
  Workload w = find_workload(args.workload);
  if (args.scale) w.scale = *args.scale;
  if (args.sources) w.sources = *args.sources;
  if (args.min_ops) w.min_ops = *args.min_ops;
  if (args.setup_reps) w.setup_reps = *args.setup_reps;
  const std::uint64_t seed = args.seed.value_or(w.default_seed);

  // Inputs: generated before any clock starts.
  const CSRGraph graph =
      bcdyn::gen::build_suite_graph("pref", w.scale, seed).graph;
  const bcdyn::ApproxConfig approx{.num_sources = w.sources, .seed = seed};
  // A traced run splits --seconds between its untraced and traced segments.
  const Config cfg{.min_ops = w.min_ops,
                   .seconds = args.trace ? args.seconds / 2 : args.seconds,
                   .window_ops = w.window_ops};
  const std::size_t max_ops =
      w.min_ops + static_cast<std::size_t>(w.max_ops_per_second * args.seconds);
  std::vector<Op> ops;
  std::vector<std::vector<Request>> chunks;
  if (w.serve) {
    chunks = make_requests(graph, seed, max_ops);
  } else {
    ops = make_ops(graph, seed, max_ops);
  }
  std::fprintf(stderr,
               "%s seed=%llu (default %llu, held-out %llu): n=%d m=%lld k=%d "
               "engine=%s devices=%d\n",
               w.name, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(w.default_seed),
               static_cast<unsigned long long>(w.heldout_seed),
               graph.num_vertices(),
               static_cast<long long>(graph.num_edges()), w.sources,
               bcdyn::to_string(w.engine), w.devices);

  const bcdyn::bc::Options options = session_options(w, approx);
  const bcdyn::bc::ServiceConfig service_config{};
  Checks checks;

  // One segment: set-up (reps times, keeping the last), the closed loop,
  // then the score gate on that session.
  auto segment = [&](int reps, std::vector<double>& setup_seconds,
                     bool traced) -> Segment {
    std::unique_ptr<bcdyn::bc::Service> service;
    std::unique_ptr<bcdyn::bc::Session> own_session;
    if (w.serve) {
      service = timed_setup(reps, setup_seconds, [&] {
        auto s = std::make_unique<bcdyn::bc::Service>(graph, options,
                                                      service_config);
        s->start();
        return s;
      });
    } else {
      own_session = timed_setup(reps, setup_seconds, [&] {
        auto s = std::make_unique<bcdyn::bc::Session>(graph, options);
        s->compute();
        return s;
      });
    }
    bcdyn::bc::Session& session = service ? service->session() : *own_session;
    std::unique_ptr<Mirror> mirror;
    if (traced) {
      mirror = std::make_unique<Mirror>(graph, options);
      checks.expect(same_bits(mirror->scores(), session.scores()),
                    "mirror static pass differs from the session's");
    }
    Segment seg = service
                      ? run_serve(*service, chunks, cfg, mirror.get(), checks)
                      : run_stream(session, ops, cfg, mirror.get(), checks);
    if (mirror) {
      checks.expect(same_bits(mirror->scores(), session.scores()),
                    "mirror scores are not bit-equal to the session's");
    }
    gate_scores(w, session, args.corrupt, checks);
    return seg;
  };

  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> setup_seconds;
  if (!args.trace) {
    const Segment seg = segment(w.setup_reps, setup_seconds, false);
    metrics = end_to_end_metrics(seg, median(setup_seconds));
    attempted = seg.ops;
    failed = seg.failed;
  } else {
    const Segment untraced = segment(1, setup_seconds, false);
    const Segment traced = segment(1, setup_seconds, true);
    const auto& a = untraced;
    const auto& b = traced;
    checks.expect(b.prefix_modeled_seconds == a.prefix_modeled_seconds &&
                      b.prefix_writes == a.prefix_writes &&
                      b.prefix_stats.makespan_seconds ==
                          a.prefix_stats.makespan_seconds &&
                      b.prefix_stats.read_p99_seconds ==
                          a.prefix_stats.read_p99_seconds,
                  "traced run did not reproduce the untraced modeled metrics");
    metrics = per_layer_metrics(w, untraced, traced);
    if (!w.serve) {
      // Ledger consistency: the two layers account for the Session call.
      const double shares = value_of(metrics, "graph.structure_share") +
                            value_of(metrics, "kernel.share");
      std::fprintf(stderr, "ledger: structure + kernel share = %.4f\n", shares);
      checks.expect(std::abs(shares - 1.0) <= kShareSumTolerance,
                    "graph.structure_share + kernel.share is not ~1");
    }
    attempted = untraced.ops + traced.ops;
    failed = untraced.failed + traced.failed;
    if (!args.spans_path.empty()) {
      std::ofstream out(args.spans_path);
      traced.log.write_jsonl(out);
      checks.expect(static_cast<bool>(out),
                    "could not write " + args.spans_path);
    }
  }
  for (const auto& [what, times] : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED (%dx): %s\n", times, what.c_str());
  }
  print_result(checks.failures.empty(), attempted, failed, metrics);
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcbench: %s\n", e.what());
    return 2;
  }
}
