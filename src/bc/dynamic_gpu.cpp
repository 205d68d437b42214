#include "bc/dynamic_gpu.hpp"

#include <algorithm>

#include "bc/static_kernels.hpp"
#include "gpusim/primitives.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/atomic_double.hpp"

namespace bcdyn {

namespace {

using sim::BlockContext;

/// Per-BFS-level frontier telemetry for the node-parallel kernels. Gated
/// on the tracer (not the always-on registry) because it fires once per
/// level per source and is only interesting when a trace is being taken.
inline void observe_frontier(const BlockContext& ctx,
                             std::size_t frontier_size) {
  sim::Runtime& rt = ctx.runtime();
  if (rt.tracer.enabled()) {
    rt.metrics.observe("bc.frontier_size", static_cast<double>(frontier_size));
  }
}

/// The vertex arr[i] (an arc endpoint) as an index.
inline std::size_t endpoint(std::span<const VertexId> arr, std::size_t i) {
  return static_cast<std::size_t>(arr[i]);
}

constexpr std::uint8_t kUntouched = 0;
constexpr std::uint8_t kDown = 1;
constexpr std::uint8_t kUp = 2;

/// Per-source read-only/updated rows bundled to keep kernel signatures sane.
struct Rows {
  std::span<Dist> d;
  std::span<Sigma> sigma;
  std::span<double> delta;
};

/// Algorithm 3: parallel initialization of the block-local update state.
/// `case3` additionally snapshots distances and clears the moved/reset maps.
/// `sign` is +1 for insertions (u_low gains u_high's paths) and -1 for
/// removals (it loses them). Kept out of line (like finalize_kernel): inlined
/// into gpu_update_source, GCC emits the per-item lambda as a call.
[[gnu::noinline]]
void init_kernel(BlockContext& ctx, GpuWorkspace& ws, const Rows& rows,
                 VertexId u_high, VertexId u_low, bool case3, double sign) {
  const std::size_t n = rows.sigma.size();
  ctx.parallel_for(n, [&](std::size_t v) {
    ctx.charge_instr(1);
    if (v == static_cast<std::size_t>(u_low) && !case3) {
      ctx.charge_read(rows.sigma, v);
      ctx.charge_read(rows.sigma, static_cast<std::size_t>(u_high));
      ctx.charge_write(ws.t, v);
      ctx.charge_write(ws.sigma_hat, v);
      ctx.charge_write(ws.delta_hat, v);
      ws.t[v] = kDown;
      ws.sigma_hat[v] =
          rows.sigma[v] + sign * rows.sigma[static_cast<std::size_t>(u_high)];
    } else {
      ctx.charge_read(rows.sigma, v);
      ctx.charge_write(ws.t, v);
      ctx.charge_write(ws.sigma_hat, v);
      ctx.charge_write(ws.delta_hat, v);
      ws.t[v] = kUntouched;
      ws.sigma_hat[v] = rows.sigma[v];
    }
    ws.delta_hat[v] = 0.0;
    if (case3) {
      ctx.charge_read(rows.d, v);
      ctx.charge_write(ws.d_new, v);
      ctx.charge_write(ws.moved, v);
      ctx.charge_write(ws.reset, v);
      ws.d_new[v] = rows.d[v];
      ws.moved[v] = 0;
      ws.reset[v] = 0;
    }
  });
}

/// Algorithm 8: atomically fold BC deltas into the shared scores and copy
/// the hatted values back into the per-source rows. Returns |touched|.
[[gnu::noinline]]
VertexId finalize_kernel(BlockContext& ctx, GpuWorkspace& ws,
                         const Rows& rows, std::span<double> bc, VertexId s,
                         bool case3) {
  const std::size_t n = rows.sigma.size();
  VertexId touched = 0;
  ctx.parallel_for(n, [&](std::size_t v) {
    ctx.charge_instr(2);
    ctx.charge_read(ws.sigma_hat, v);
    ctx.charge_read(ws.t, v);
    ctx.charge_write(rows.sigma, v);
    rows.sigma[v] = ws.sigma_hat[v];
    if (case3) {
      ctx.charge_read(ws.d_new, v);
      ctx.charge_write(rows.d, v);
      rows.d[v] = ws.d_new[v];
    }
    if (ws.t[v] == kUntouched) return;
    ++touched;
    if (v != static_cast<std::size_t>(s)) {
      ctx.charge_read(ws.delta_hat, v);
      ctx.charge_read(rows.delta, v);
      ctx.charge_atomic(bc, v);
      util::atomic_add(bc, v, ws.delta_hat[v] - rows.delta[v]);
    }
    ctx.charge_read(ws.delta_hat, v);
    ctx.charge_write(rows.delta, v);
    rows.delta[v] = ws.delta_hat[v];
  });
  return touched;
}

void removal_prepass(BlockContext& ctx, GpuWorkspace& ws, const Rows& rows,
                     VertexId u_high, VertexId u_low, bool node_mode);

// ---------------------------------------------------------------------------
// Case 2, edge-parallel (Algorithms 4 and 6). With `removal`, the same
// level-synchronous machinery runs with negative sigma increments seeded by
// the init kernel, plus the decremental pre-pass for u_high.
// ---------------------------------------------------------------------------

void edge_case2(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low, bool removal) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const auto d = rows.d;

  // Algorithm 4: level-synchronous sigma-hat propagation; every level scans
  // the entire arc list. Note this touches whole BFS levels below u_low
  // (any w one level below a current-depth v), which is exactly the futile
  // work the paper attributes to the edge-parallel mapping. Arcs whose
  // source is off the level are charged in closed form; no item of either
  // stage changes d, so the level buckets hold throughout.
  ws.levels.build(g, d);
  const sim::FutileCost down_exits[] = {
      ctx.futile_cost(2, {1, 1, 1}),      // d[v] != depth
      ctx.futile_cost(2, {1, 1, 1, 1})};  // d[w] != depth + 1
  Dist depth = d[static_cast<std::size_t>(u_low)];
  Dist last_touch_depth = depth;
  bool done = false;
  while (!done) {
    done = true;
    ctx.parallel_for_ranged(num_arcs, ws.levels.at(depth), down_exits,
                            [&](std::size_t a) {
      if (d[endpoint(src, a)] != depth) return 1;
      return d[endpoint(dst, a)] != depth + 1 ? 2 : 0;
    }, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto v = static_cast<std::size_t>(src[a]);
      const auto w = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(d, v);
      if (d[v] != depth) return;
      ctx.charge_read(d, w);
      if (d[w] != depth + 1) return;
      // The t[w] touch test stays unaddressed: arcs sharing a head race on
      // it, benignly - every winner stores the same kDown (paper SIII.A).
      ctx.charge_read(1);
      if (ws.t[w] == kUntouched) {
        ws.t[w] = kDown;  // benign race on hardware (paper §III.A)
        ctx.charge_write(1);
        done = false;
      }
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      ctx.charge_atomic(ws.sigma_hat, w);
      ws.sigma_hat[w] += ws.sigma_hat[v] - rows.sigma[v];
    });
    if (!done) last_touch_depth = depth + 1;
    ++depth;
  }
  (void)s;
  if (removal) removal_prepass(ctx, ws, rows, u_high, u_low, false);

  // Algorithm 6 (with the Brandes roles made explicit: arc (c, p) with c at
  // `dep` contributing to its predecessor p at dep-1).
  const sim::FutileCost up_exits[] = {
      ctx.futile_cost(2, {1, 1, 1}),         // d[c] != dep
      ctx.futile_cost(2, {1, 1, 1, 1}),      // d[p] != dep - 1
      ctx.futile_cost(2, {1, 1, 1, 1, 1})};  // c untouched
  for (Dist dep = last_touch_depth; dep >= 1; --dep) {
    ctx.parallel_for_ranged(num_arcs, ws.levels.at(dep), up_exits,
                            [&](std::size_t a) {
      if (d[endpoint(src, a)] != dep) return 1;
      if (d[endpoint(dst, a)] != dep - 1) return 2;
      return ws.t[endpoint(src, a)] == kUntouched ? 3 : 0;
    }, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto c = static_cast<std::size_t>(src[a]);
      const auto p = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(d, c);
      if (d[c] != dep) return;
      ctx.charge_read(d, p);
      if (d[p] != dep - 1) return;
      ctx.charge_read(ws.t, c);
      if (ws.t[c] == kUntouched) return;  // c's contribution is unchanged
      double dsv = 0.0;
      ctx.charge_read(ws.t, p);
      ctx.charge_atomic(ws.t, p);  // atomicCAS on t[p]
      if (ws.t[p] == kUntouched) {
        ws.t[p] = kUp;  // the store is part of the CAS, charged above
        ctx.charge_read(rows.delta, p);
        dsv += rows.delta[p];
      }
      ctx.charge_read(ws.sigma_hat, p);
      ctx.charge_read(ws.sigma_hat, c);
      ctx.charge_read(ws.delta_hat, c);
      ctx.charge_read(ws.t, p);
      dsv += ws.sigma_hat[p] / ws.sigma_hat[c] * (1.0 + ws.delta_hat[c]);
      if (ws.t[p] == kUp &&
          !(p == static_cast<std::size_t>(u_high) &&
            c == static_cast<std::size_t>(u_low))) {
        ctx.charge_read(rows.sigma, p);
        ctx.charge_read(rows.sigma, c);
        ctx.charge_read(rows.delta, c);
        dsv -= rows.sigma[p] / rows.sigma[c] * (1.0 + rows.delta[c]);
      }
      ctx.charge_atomic(ws.delta_hat, p);
      ws.delta_hat[p] += dsv;
    });
  }
}

// ---------------------------------------------------------------------------
// Case 2, node-parallel (Algorithms 5 and 7).
// ---------------------------------------------------------------------------

void node_case2(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low, bool removal) {
  const auto d = rows.d;
  ws.q.clear();
  ws.q2.clear();
  ws.qq.clear();
  ws.q.push_back(u_low);
  ws.qq.push_back(u_low);

  // Algorithm 5: frontier BFS with duplicate removal. (In the simulator a
  // block executes sequentially, so the first visiting parent wins the
  // touch test and Q2 is duplicate-free; the remove_duplicates pipeline is
  // still executed and charged because the algorithm cannot know that.)
  while (!ws.q.empty()) {
    observe_frontier(ctx, ws.q.size());
    ws.q2.clear();
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      const auto v = static_cast<std::size_t>(ws.q[i]);
      ctx.charge_read(ws.q, i);
      ctx.charge_read(1);  // row offset (no span here)
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      const Dist dv = d[v];
      const Sigma inc = ws.sigma_hat[v] - rows.sigma[v];
      for (VertexId wv : g.neighbors(static_cast<VertexId>(v))) {
        const auto w = static_cast<std::size_t>(wv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, w);
        if (d[w] != dv + 1) continue;
        // Unaddressed: the t[w] touch test is the paper's benign
        // first-parent-wins race (SIII.A), and the Q2 append may
        // reallocate the queue's storage mid-round.
        ctx.charge_read(1);
        if (ws.t[w] == kUntouched) {
          ws.t[w] = kDown;
          ctx.charge_write(1);
          ctx.charge_atomic_aggregated();  // Q2 tail counter (Algorithm 5 line 15)
          ctx.charge_write(1);
          ws.q2.push_back(wv);
        }
        ctx.charge_atomic(ws.sigma_hat, w);
        ws.sigma_hat[w] += inc;
      }
    });
    if (ws.q2.empty()) break;
    const std::size_t unique =
        sim::block_remove_duplicates(ctx, ws.q2, ws.q2.size(), ws.scratch,
                                     ws.flags);
    ws.q.assign(ws.q2.begin(), ws.q2.begin() + static_cast<std::ptrdiff_t>(unique));
    // Transfer to Q and append to QQ (Algorithm 5 lines 25-28). Queue
    // writes stay unaddressed: the appends may reallocate the storage.
    ctx.parallel_for(unique, [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_write(1);
      ctx.charge_atomic_aggregated();  // QQ tail counter
      ctx.charge_write(1);
      ws.qq.push_back(ws.q[i]);
    });
  }

  if (removal) removal_prepass(ctx, ws, rows, u_high, u_low, true);

  // Starting depth for the dependency stage: deepest touched level
  // (Algorithm 5 lines 30-31, restricted to processed vertices).
  Dist max_depth = 0;
  {
    ws.scratch.resize(std::max(ws.scratch.size(), ws.qq.size()));
    std::vector<Dist> levels(ws.qq.size());
    for (std::size_t i = 0; i < ws.qq.size(); ++i) {
      levels[i] = d[static_cast<std::size_t>(ws.qq[i])];
    }
    max_depth = sim::block_reduce_max(ctx, levels, levels.size(), 0);
  }

  // Algorithm 7: level-filtered sweep over the flat multi-level queue.
  for (Dist dep = max_depth; dep >= 1; --dep) {
    const std::size_t qq_len = ws.qq.size();  // appends go to dep-1
    ctx.parallel_for(qq_len, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.qq[i]);
      // Unaddressed: QQ entry - appends below may reallocate the storage.
      ctx.charge_read(1);
      ctx.charge_read(d, w);
      if (d[w] != dep) return;
      ctx.charge_read(ws.delta_hat, w);
      ctx.charge_read(ws.sigma_hat, w);
      ctx.charge_read(rows.delta, w);
      const double coeff_new =
          (1.0 + ws.delta_hat[w]) / ws.sigma_hat[w];
      const double coeff_old = (1.0 + rows.delta[w]) / rows.sigma[w];
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, x);
        if (d[x] + 1 != d[w]) continue;
        double dsv = 0.0;
        ctx.charge_atomic(ws.t, x);  // atomicCAS on t[x] (Algorithm 7 line 9)
        if (ws.t[x] == kUntouched) {
          ws.t[x] = kUp;  // the store is part of the CAS, charged above
          ctx.charge_read(rows.delta, x);
          dsv += rows.delta[x];
          ctx.charge_atomic_aggregated();  // QQ tail counter
          ctx.charge_write(1);  // unaddressed: QQ may reallocate
          ws.qq.push_back(xv);
        }
        ctx.charge_read(ws.sigma_hat, x);
        ctx.charge_read(ws.t, x);
        dsv += ws.sigma_hat[x] * coeff_new;
        if (ws.t[x] == kUp &&
            !(x == static_cast<std::size_t>(u_high) &&
              w == static_cast<std::size_t>(u_low))) {
          ctx.charge_read(rows.sigma, x);
          dsv -= rows.sigma[x] * coeff_old;
        }
        ctx.charge_atomic(ws.delta_hat, x);
        ws.delta_hat[x] += dsv;
      }
    });
  }
  (void)s;
}

// ---------------------------------------------------------------------------
// Case 3, node-parallel (generalized repair; DESIGN.md §7).
// ---------------------------------------------------------------------------

void node_case3(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low) {
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  ws.q.clear();
  ws.q2.clear();
  ws.qq.clear();
  ws.moved_list.clear();

  const Dist level0 = d[static_cast<std::size_t>(u_high)] + 1;
  ws.d_new[lo] = level0;
  ws.t[lo] = kDown;
  ws.moved[lo] = 1;
  ws.moved_list.push_back(u_low);
  ws.q.push_back(u_low);
  ws.qq.push_back(u_low);

  // Phase A: ascending levels; two sub-kernels per level.
  Dist level = level0;
  while (!ws.q.empty()) {
    observe_frontier(ctx, ws.q.size());
    // A1: recompute sigma-hat of frontier vertices from their new parents
    // (single writer per vertex: no atomics needed). Also classifies
    // RESET = moved or sigma changed.
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.q[i]);
      ctx.charge_read(ws.q, i);
      ctx.charge_read(1);  // row offset (no span here)
      Sigma sum = 0.0;
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(ws.d_new, x);
        if (ws.d_new[x] == level - 1) {
          // Reads parents one level up; the writes below hit this level
          // only, so the addressed accesses stay disjoint.
          ctx.charge_read(ws.sigma_hat, x);
          sum += ws.sigma_hat[x];
        }
      }
      ws.sigma_hat[w] = sum;
      ctx.charge_read(ws.moved, w);
      ctx.charge_read(rows.sigma, w);
      ctx.charge_write(ws.sigma_hat, w);
      ctx.charge_write(ws.reset, w);
      ws.reset[w] = (ws.moved[w] != 0 || sum != rows.sigma[w]) ? 1 : 0;
    });

    // A2: changed vertices pull far neighbors closer and mark same-level+1
    // neighbors for sigma recomputation.
    ws.q2.clear();
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.q[i]);
      ctx.charge_read(ws.q, i);
      ctx.charge_read(ws.reset, w);
      if (ws.reset[w] == 0) return;
      // The pull accesses below (d_new/t/moved reads and writes) stay
      // unaddressed: two frontier vertices sharing a far neighbor race on
      // them, benignly - every winner stores the same pulled level, kDown,
      // and moved bit (paper SIII.A generalized to the repair pre-pass).
      // Queue appends may also reallocate their storage mid-round.
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(2);
        const Dist dx = ws.d_new[x];
        if (dx > level + 1) {
          ctx.charge_write(3);
          ctx.charge_atomic_aggregated();  // moved-list tail counter
          ctx.charge_write(1);
          ws.d_new[x] = level + 1;
          ws.t[x] = kDown;
          ws.moved[x] = 1;
          ws.moved_list.push_back(xv);
          ctx.charge_atomic_aggregated();  // Q2 tail counter
          ctx.charge_write(1);
          ws.q2.push_back(xv);
        } else if (dx == level + 1 && ws.t[x] == kUntouched) {
          ctx.charge_read(1);
          ctx.charge_write(1);
          ws.t[x] = kDown;
          ctx.charge_atomic_aggregated();
          ctx.charge_write(1);
          ws.q2.push_back(xv);
        }
      }
    });
    if (ws.q2.empty()) break;
    const std::size_t unique = sim::block_remove_duplicates(
        ctx, ws.q2, ws.q2.size(), ws.scratch, ws.flags);
    ws.q.assign(ws.q2.begin(),
                ws.q2.begin() + static_cast<std::ptrdiff_t>(unique));
    ctx.parallel_for(unique, [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_atomic_aggregated();
      ctx.charge_write(2);  // unaddressed: QQ append may reallocate
      ws.qq.push_back(ws.q[i]);
    });
    ++level;
  }

  // CARRY vertices (touched, but distance and sigma unchanged) keep their
  // old dependency as the base for differential corrections.
  ctx.parallel_for(ws.qq.size(), [&](std::size_t i) {
    const auto w = static_cast<std::size_t>(ws.qq[i]);
    ctx.charge_read(ws.qq, i);
    ctx.charge_read(ws.reset, w);
    if (ws.reset[w] == 0) {
      ctx.charge_read(rows.delta, w);
      ctx.charge_write(ws.delta_hat, w);
      ws.delta_hat[w] = rows.delta[w];
    }
  });

  // Phase B pre-pass: moved vertices abandoned old parents; subtract their
  // stale contribution from CARRY parents that are no longer parents.
  const std::size_t num_moved = ws.moved_list.size();
  ctx.parallel_for(num_moved, [&](std::size_t i) {
    const auto w = static_cast<std::size_t>(ws.moved_list[i]);
    ctx.charge_read(ws.moved_list, i);
    ctx.charge_read(d, w);
    const Dist dw_old = d[w];
    if (dw_old == kInfDist) return;  // previously unreachable: no parents
    ctx.charge_read(rows.delta, w);
    ctx.charge_read(rows.sigma, w);
    const double coeff_old = (1.0 + rows.delta[w]) / rows.sigma[w];
    for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
      const auto x = static_cast<std::size_t>(xv);
      ctx.charge_instr(3);
      ctx.charge_read(1);  // adjacency entry (no span here)
      ctx.charge_read(d, x);
      ctx.charge_read(ws.d_new, x);
      if (d[x] + 1 != dw_old) continue;            // not an old parent
      if (ws.d_new[x] + 1 == ws.d_new[w]) continue;  // still a parent
      ctx.charge_atomic(ws.t, x);  // CAS on t[x]
      if (ws.t[x] == kUntouched) {
        ws.t[x] = kUp;  // the store is part of the CAS, charged above
        ctx.charge_read(rows.delta, x);
        // Unaddressed: this CAS-winner seeding store genuinely races the
        // concurrent atomic subtractions on delta_hat[x] below on real
        // hardware - the untracked-access caveat documented in DESIGN.md.
        // A CUDA port must seed delta_hat before the pre-pass instead.
        ctx.charge_write(1);
        ws.delta_hat[x] = rows.delta[x];
        ctx.charge_atomic_aggregated();
        ctx.charge_write(1);  // unaddressed: QQ append may reallocate
        ws.qq.push_back(xv);
      }
      ctx.charge_read(ws.reset, x);
      if (ws.reset[x] == 0) {
        ctx.charge_read(rows.sigma, x);
        ctx.charge_atomic(ws.delta_hat, x);
        ws.delta_hat[x] -= rows.sigma[x] * coeff_old;
      }
    }
  });

  // Phase B: descending dependency repair over the multi-level queue.
  Dist max_depth = 0;
  {
    std::vector<Dist> levels(ws.qq.size());
    for (std::size_t i = 0; i < ws.qq.size(); ++i) {
      levels[i] = ws.d_new[static_cast<std::size_t>(ws.qq[i])];
    }
    max_depth = sim::block_reduce_max(ctx, levels, levels.size(), 0);
  }
  for (Dist dep = max_depth; dep >= 1; --dep) {
    const std::size_t qq_len = ws.qq.size();
    ctx.parallel_for(qq_len, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.qq[i]);
      // Unaddressed: QQ entry - appends below may reallocate the storage.
      ctx.charge_read(1);
      ctx.charge_read(ws.d_new, w);
      if (ws.d_new[w] != dep) return;
      ctx.charge_read(ws.delta_hat, w);
      ctx.charge_read(ws.sigma_hat, w);
      ctx.charge_read(rows.delta, w);
      ctx.charge_read(rows.sigma, w);
      const double coeff_new = (1.0 + ws.delta_hat[w]) / ws.sigma_hat[w];
      const bool w_had_old = d[w] != kInfDist;
      const double coeff_old =
          w_had_old ? (1.0 + rows.delta[w]) / rows.sigma[w] : 0.0;
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(ws.d_new, x);
        if (ws.d_new[x] + 1 != ws.d_new[w]) continue;
        ctx.charge_atomic(ws.t, x);  // CAS on t[x]
        double dsv = 0.0;
        if (ws.t[x] == kUntouched) {
          ws.t[x] = kUp;  // the store is part of the CAS, charged above
          ctx.charge_read(rows.delta, x);
          dsv += rows.delta[x];
          ctx.charge_atomic_aggregated();
          ctx.charge_write(1);  // unaddressed: QQ may reallocate
          ws.qq.push_back(xv);
        }
        ctx.charge_read(ws.sigma_hat, x);
        ctx.charge_read(rows.d, x);
        dsv += ws.sigma_hat[x] * coeff_new;
        ctx.charge_read(ws.reset, x);
        ctx.charge_read(rows.d, w);
        if (ws.reset[x] == 0 && w_had_old && d[x] + 1 == d[w] &&
            !(x == static_cast<std::size_t>(u_high) && w == lo)) {
          ctx.charge_read(rows.sigma, x);
          dsv -= rows.sigma[x] * coeff_old;
        }
        ctx.charge_atomic(ws.delta_hat, x);
        ws.delta_hat[x] += dsv;
      }
    });
  }
  (void)s;
}

// ---------------------------------------------------------------------------
// Case 3, edge-parallel.
// ---------------------------------------------------------------------------

void edge_case3(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const std::size_t n = rows.sigma.size();
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  ws.moved_list.clear();

  const Dist level0 = d[static_cast<std::size_t>(u_high)] + 1;
  ws.d_new[lo] = level0;
  ws.t[lo] = kDown;
  ws.moved[lo] = 1;
  ws.moved_list.push_back(u_low);

  // Closed-form early-outs of the sweeps below, in their charge order.
  const sim::FutileCost vertex_exit[] = {ctx.futile_cost(1, {1, 1})};
  const sim::FutileCost sigma_exit[] = {ctx.futile_cost(2, {1, 1, 1, 1})};
  const sim::FutileCost pull_exits[] = {
      ctx.futile_cost(2, {1, 1, 2}),      // w untouched or off the level
      ctx.futile_cost(2, {1, 1, 2, 1})};  // w not reset
  auto off_level = [&](std::size_t v, Dist lv) {
    return ws.t[v] == kUntouched || ws.d_new[v] != lv;
  };

  Dist level = level0;
  Dist max_depth = level0;
  bool progress = true;
  while (progress) {
    progress = false;
    // E1: zero sigma-hat of touched vertices at this level.
    ctx.parallel_for_guarded(n, vertex_exit, [&](std::size_t v) {
      return off_level(v, level) ? 1 : 0;
    }, [&](std::size_t v) {
      ctx.charge_instr(1);
      ctx.charge_read(ws.t, v);
      ctx.charge_read(ws.d_new, v);
      if (ws.t[v] != kUntouched && ws.d_new[v] == level) {
        ctx.charge_write(ws.sigma_hat, v);
        ws.sigma_hat[v] = 0.0;
      }
    });
    // E2: accumulate sigma from parents over the whole arc list. Both
    // early-outs cost the same: the d_new[x] test is not charged.
    ctx.parallel_for_guarded(num_arcs, sigma_exit, [&](std::size_t a) {
      const bool futile = off_level(endpoint(dst, a), level) ||
                          ws.d_new[endpoint(src, a)] != level - 1;
      return futile ? 1 : 0;
    }, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto x = static_cast<std::size_t>(src[a]);
      const auto w = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(ws.t, w);
      ctx.charge_read(ws.d_new, w);
      if (ws.t[w] == kUntouched || ws.d_new[w] != level) return;
      if (ws.d_new[x] != level - 1) return;
      ctx.charge_read(ws.sigma_hat, x);
      ctx.charge_atomic(ws.sigma_hat, w);
      ws.sigma_hat[w] += ws.sigma_hat[x];
    });
    // E3a: classify RESET at this level.
    ctx.parallel_for_guarded(n, vertex_exit, [&](std::size_t v) {
      return off_level(v, level) ? 1 : 0;
    }, [&](std::size_t v) {
      ctx.charge_instr(1);
      ctx.charge_read(ws.t, v);
      ctx.charge_read(ws.d_new, v);
      if (ws.t[v] == kUntouched || ws.d_new[v] != level) return;
      ctx.charge_read(ws.moved, v);
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      ctx.charge_write(ws.reset, v);
      ws.reset[v] =
          (ws.moved[v] != 0 || ws.sigma_hat[v] != rows.sigma[v]) ? 1 : 0;
    });
    // E3b: changed vertices pull/mark neighbors at level+1. The t and
    // d_new accesses stay unaddressed here: every arc reads t/d_new of its
    // endpoints while sibling arcs pull shared far neighbors - the benign
    // same-value races of the repair pre-pass (paper SIII.A generalized);
    // the moved-list append may also reallocate its storage mid-round.
    ctx.parallel_for_guarded(num_arcs, pull_exits, [&](std::size_t a) {
      const std::size_t w = endpoint(src, a);
      if (off_level(w, level)) return 1;
      return ws.reset[w] == 0 ? 2 : 0;
    }, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto w = static_cast<std::size_t>(src[a]);
      const auto x = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(2);  // t[w] + d_new[w], racing the pulls below
      if (ws.t[w] == kUntouched || ws.d_new[w] != level) return;
      ctx.charge_read(ws.reset, w);
      if (ws.reset[w] == 0) return;
      ctx.charge_read(1);  // d_new[x], racing the pulls below
      const Dist dx = ws.d_new[x];
      if (dx > level + 1) {
        ctx.charge_write(3);  // d_new[x] + t[x] + moved[x], benign race
        ctx.charge_atomic_aggregated();
        ctx.charge_write(1);  // unaddressed: moved-list may reallocate
        ws.d_new[x] = level + 1;
        ws.t[x] = kDown;
        ws.moved[x] = 1;
        ws.moved_list.push_back(dst[a]);
        progress = true;
      } else if (dx == level + 1 && ws.t[x] == kUntouched) {
        ctx.charge_write(1);  // t[x], benign race
        ws.t[x] = kDown;
        progress = true;
      }
    });
    if (progress) max_depth = level + 1;
    ++level;
  }

  // CARRY bases for phase-A touched vertices.
  ctx.parallel_for_guarded(n, vertex_exit, [&](std::size_t v) {
    return ws.t[v] == kDown && ws.reset[v] == 0 ? 0 : 1;
  }, [&](std::size_t v) {
    ctx.charge_instr(1);
    ctx.charge_read(ws.t, v);
    ctx.charge_read(ws.reset, v);
    if (ws.t[v] == kDown && ws.reset[v] == 0) {
      ctx.charge_read(rows.delta, v);
      ctx.charge_write(ws.delta_hat, v);
      ws.delta_hat[v] = rows.delta[v];
    }
  });

  // Pre-pass over arcs: (w moved, x old-parent no longer parent).
  const sim::FutileCost prepass_exits[] = {
      ctx.futile_cost(3, {1, 1, 1}),               // w did not move
      ctx.futile_cost(3, {1, 1, 1, 1, 1}),         // x not an old parent
      ctx.futile_cost(3, {1, 1, 1, 1, 1, 1, 1})};  // x still a parent
  ctx.parallel_for_guarded(num_arcs, prepass_exits, [&](std::size_t a) {
    const std::size_t w = endpoint(src, a);
    const std::size_t x = endpoint(dst, a);
    if (ws.moved[w] == 0) return 1;
    const Dist dw_old = d[w];
    if (dw_old == kInfDist || d[x] + 1 != dw_old) return 2;
    return ws.d_new[x] + 1 == ws.d_new[w] ? 3 : 0;
  }, [&](std::size_t a) {
    ctx.charge_instr(3);
    const auto w = static_cast<std::size_t>(src[a]);
    const auto x = static_cast<std::size_t>(dst[a]);
    ctx.charge_read(src, a);
    ctx.charge_read(dst, a);
    ctx.charge_read(ws.moved, w);
    if (ws.moved[w] == 0) return;
    ctx.charge_read(d, w);
    ctx.charge_read(d, x);
    const Dist dw_old = d[w];
    if (dw_old == kInfDist) return;
    if (d[x] + 1 != dw_old) return;
    ctx.charge_read(ws.d_new, x);
    ctx.charge_read(ws.d_new, w);
    if (ws.d_new[x] + 1 == ws.d_new[w]) return;
    ctx.charge_atomic(ws.t, x);  // CAS on t[x]
    double dsv = 0.0;
    if (ws.t[x] == kUntouched) {
      ws.t[x] = kUp;  // the store is part of the CAS, charged above
      ctx.charge_read(rows.delta, x);
      dsv += rows.delta[x];
    }
    ctx.charge_read(ws.reset, x);
    if (ws.reset[x] == 0) {
      ctx.charge_read(rows.sigma, x);
      ctx.charge_read(rows.sigma, w);
      ctx.charge_read(rows.delta, w);
      dsv -= rows.sigma[x] / rows.sigma[w] * (1.0 + rows.delta[w]);
    }
    if (dsv != 0.0) {
      ctx.charge_atomic(ws.delta_hat, x);
      ws.delta_hat[x] += dsv;
    }
    // Track the deepest level an up-marked parent lives at.
    if (ws.d_new[x] > max_depth) max_depth = ws.d_new[x];
  });

  // Descending dependency repair over the whole arc list per level. d_new
  // is final here, so its level buckets bound each level's source arcs.
  ws.levels.build(g, std::span<const Dist>(ws.d_new).first(n));
  const sim::FutileCost up_exits[] = {
      ctx.futile_cost(2, {1, 1, 1}),         // d_new[c] != dep
      ctx.futile_cost(2, {1, 1, 1, 1}),      // c untouched
      ctx.futile_cost(2, {1, 1, 1, 1, 1})};  // p not c's new parent
  for (Dist dep = max_depth; dep >= 1; --dep) {
    ctx.parallel_for_ranged(num_arcs, ws.levels.at(dep), up_exits,
                            [&](std::size_t a) {
      const std::size_t c = endpoint(src, a);
      if (ws.d_new[c] != dep) return 1;
      if (ws.t[c] == kUntouched) return 2;
      return ws.d_new[endpoint(dst, a)] + 1 != ws.d_new[c] ? 3 : 0;
    }, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto c = static_cast<std::size_t>(src[a]);
      const auto p = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(ws.d_new, c);
      if (ws.d_new[c] != dep) return;
      ctx.charge_read(ws.t, c);
      if (ws.t[c] == kUntouched) return;
      ctx.charge_read(ws.d_new, p);
      if (ws.d_new[p] + 1 != ws.d_new[c]) return;
      ctx.charge_atomic(ws.t, p);  // CAS on t[p]
      double dsv = 0.0;
      if (ws.t[p] == kUntouched) {
        ws.t[p] = kUp;  // the store is part of the CAS, charged above
        ctx.charge_read(rows.delta, p);
        dsv += rows.delta[p];
      }
      ctx.charge_read(ws.sigma_hat, p);
      ctx.charge_read(ws.sigma_hat, c);
      ctx.charge_read(ws.delta_hat, c);
      ctx.charge_read(d, c);
      dsv += ws.sigma_hat[p] / ws.sigma_hat[c] * (1.0 + ws.delta_hat[c]);
      const bool c_had_old = d[c] != kInfDist;
      ctx.charge_read(ws.reset, p);
      ctx.charge_read(d, p);
      ctx.charge_read(d, c);
      if (ws.reset[p] == 0 && c_had_old && d[p] + 1 == d[c] &&
          !(p == static_cast<std::size_t>(u_high) && c == lo)) {
        ctx.charge_read(rows.sigma, p);
        ctx.charge_read(rows.sigma, c);
        ctx.charge_read(rows.delta, c);
        dsv -= rows.sigma[p] / rows.sigma[c] * (1.0 + rows.delta[c]);
      }
      ctx.charge_atomic(ws.delta_hat, p);
      ws.delta_hat[p] += dsv;
    });
  }
  (void)s;
}

/// Decremental pre-pass shared by both mappings: u_high lost u_low as a
/// child and the removed edge is invisible to the neighbor scans, so its
/// stale contribution is subtracted explicitly, with u_high brushed "up".
void removal_prepass(BlockContext& ctx, GpuWorkspace& ws, const Rows& rows,
                     VertexId u_high, VertexId u_low, bool node_mode) {
  const auto hi = static_cast<std::size_t>(u_high);
  const auto lo = static_cast<std::size_t>(u_low);
  ctx.charge_atomic(ws.t, hi);  // CAS on t[u_high]
  if (ws.t[hi] == kUntouched) {
    ws.t[hi] = kUp;
    ctx.charge_read(rows.delta, hi);
    ctx.charge_write(ws.delta_hat, hi);
    ws.delta_hat[hi] = rows.delta[hi];
    if (node_mode) {
      ctx.charge_atomic_aggregated();  // QQ tail counter
      ctx.charge_write(1);  // unaddressed: QQ append may reallocate
      ws.qq.push_back(u_high);
    }
  }
  ctx.charge_read(rows.sigma, hi);
  ctx.charge_read(rows.sigma, lo);
  ctx.charge_read(rows.delta, lo);
  ctx.charge_read(ws.delta_hat, hi);
  ctx.charge_atomic(ws.delta_hat, hi);
  ws.delta_hat[hi] -=
      rows.sigma[hi] / rows.sigma[lo] * (1.0 + rows.delta[lo]);
}

}  // namespace

namespace detail {

SourceUpdateOutcome gpu_update_source(sim::BlockContext& ctx,
                                      GpuWorkspace& ws, Parallelism mode,
                                      const CSRGraph& g, VertexId s,
                                      std::span<Dist> d, std::span<Sigma> sigma,
                                      std::span<double> delta,
                                      std::span<double> bc, VertexId u,
                                      VertexId v, bool removal) {
  Rows rows{d, sigma, delta};
  ctx.charge_read(rows.d, static_cast<std::size_t>(u));
  ctx.charge_read(rows.d, static_cast<std::size_t>(v));
  ctx.charge_instr(4);
  std::size_t scanned = 0;
  const CaseInfo info = removal ? classify_removal(g, rows.d, u, v, &scanned)
                                : classify_insertion(rows.d, u, v);
  if (info.update_case != UpdateCase::kNoWork && removal) {
    // The surviving-parent search over u_low's neighbors.
    const auto lo = static_cast<std::size_t>(info.u_low);
    ctx.charge_read(rows.d, lo);
    for (const VertexId x : g.neighbors(info.u_low).first(scanned)) {
      ctx.charge_read(1);  // adjacency entry (no span here)
      ctx.charge_read(rows.d, static_cast<std::size_t>(x));
      ctx.charge_instr(1);
    }
  }
  SourceUpdateOutcome outcome;
  outcome.update_case = info.update_case;
  if (info.update_case == UpdateCase::kFar && removal) {
    // Distance-growing removal: recompute this source's row on the device
    // and fold the dependency differences into BC.
    outcome.touched = g.num_vertices();
    gpu_recompute_source(ctx, ws, mode, g, s, rows.d, rows.sigma, rows.delta,
                         bc);
  } else if (info.update_case != UpdateCase::kNoWork) {
    const bool case3 = info.update_case == UpdateCase::kFar;
    init_kernel(ctx, ws, rows, info.u_high, info.u_low, case3,
                removal ? -1.0 : 1.0);
    if (case3) {
      if (mode == Parallelism::kEdge) {
        edge_case3(ctx, g, s, rows, ws, info.u_high, info.u_low);
      } else {
        node_case3(ctx, g, s, rows, ws, info.u_high, info.u_low);
      }
    } else if (mode == Parallelism::kEdge) {
      edge_case2(ctx, g, s, rows, ws, info.u_high, info.u_low, removal);
    } else {
      node_case2(ctx, g, s, rows, ws, info.u_high, info.u_low, removal);
    }
    outcome.touched = finalize_kernel(ctx, ws, rows, bc, s, case3);
  }
  record_source_update_metrics(ctx.runtime().metrics, outcome,
                               g.num_vertices());
  return outcome;
}

void gpu_recompute_source(sim::BlockContext& ctx, GpuWorkspace& ws,
                          Parallelism mode, const CSRGraph& g, VertexId s,
                          std::span<Dist> d, std::span<Sigma> sigma,
                          std::span<double> delta, std::span<double> bc) {
  const std::size_t n = delta.size();
  ctx.parallel_for(n, [&](std::size_t w) {
    ctx.charge_read(delta, w);
    ctx.charge_write(ws.delta_hat, w);
    ws.delta_hat[w] = delta[w];  // save old dependencies
  });
  if (mode == Parallelism::kEdge) {
    static_source_edge(ctx, g, s, d, sigma, delta, {}, ws.levels);
  } else {
    static_source_node(ctx, g, s, d, sigma, delta, {}, ws.order,
                       ws.level_offsets);
  }
  ctx.parallel_for(n, [&](std::size_t w) {
    ctx.charge_instr(2);
    ctx.charge_read(delta, w);
    ctx.charge_read(ws.delta_hat, w);
    if (w == static_cast<std::size_t>(s)) return;
    if (delta[w] != ws.delta_hat[w]) {
      ctx.charge_atomic(bc, w);
      util::atomic_add(bc, w, delta[w] - ws.delta_hat[w]);
    }
  });
}

}  // namespace detail

}  // namespace bcdyn
