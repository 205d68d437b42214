// Extension bench (paper §VI future work: multi-core CPU parallelism):
// strong scaling of the dynamic analytic across CPU lanes. Sources are
// dealt to lanes in contiguous chunks; the modeled parallel time of an
// update is the *makespan* over lanes (max per-lane operation cost), so
// the numbers show both the parallel speedup and the load-imbalance loss.
//
// Lanes are modeled arithmetic: one DynamicCpuEngine updates the sources in
// order, and each source's operation counts go to its lane's total. That
// is exact because a source's counts depend only on its own work (the
// engine's scratch is re-initialised per source), so the stream runs once
// per graph whatever the lane counts.
//
// Flags: common flags plus --lanes=1,2,4,... (each >= 1)
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "gpusim/cost_model.hpp"

using namespace bcdyn;

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  const auto lane_counts = cli.get_int_list("lanes", {1, 2, 4, 8, 16});
  bench::warn_unused(cli);
  if (!bench::require_counts(lane_counts, "lanes")) return 2;
  if (!cli.has("graphs") && cfg.graph_file.empty()) {
    cfg.graph_names = {"caida", "pref", "small"};
  }
  if (!cli.has("sources")) cfg.sources = 64;
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  const sim::CostModel cm;

  std::vector<std::string> header = {"Graph"};
  for (auto lanes : lane_counts) {
    header.push_back(std::to_string(lanes) + " lanes");
  }
  util::Table table(header);

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    CSRGraph g = stream.base;
    BcStore store(g.num_vertices(), approx);
    brandes_all(g, store);
    DynamicCpuEngine engine(g.num_vertices());
    const int k = store.num_sources();

    // ops[step][si]: source si's operation counts for insertion `step`.
    std::vector<std::vector<CpuOpCounters>> ops;
    for (const auto& [u, v] : stream.insertions) {
      g = g.with_edge(u, v);
      auto& step = ops.emplace_back(static_cast<std::size_t>(k));
      for (int si = 0; si < k; ++si) {
        engine.reset_counters();
        engine.update_source(g, store.sources()[static_cast<std::size_t>(si)],
                             store.dist_row(si), store.sigma_row(si),
                             store.delta_row(si), store.bc(), u, v);
        step[static_cast<std::size_t>(si)] = engine.counters();
      }
    }

    std::vector<std::string> row = {entry.name};
    double base = 0.0;
    for (auto lanes : lane_counts) {
      // Sources go to lanes in chunks of ceil(k / lanes); lanes past the
      // k-th would get none, so they are left out of the max.
      const auto used = std::min<std::int64_t>(lanes, k);
      const auto chunk = used > 0 ? (k + used - 1) / used : 1;
      std::vector<CpuOpCounters> lane(static_cast<std::size_t>(used));
      double makespan = 0.0;
      for (const auto& step : ops) {
        std::fill(lane.begin(), lane.end(), CpuOpCounters{});
        for (int si = 0; si < k; ++si) {
          lane[static_cast<std::size_t>(si / chunk)] +=
              step[static_cast<std::size_t>(si)];
        }
        double worst = 0.0;
        for (const auto& c : lane) {
          worst = std::max(worst,
                           sim::cpu_seconds(cm, c.instrs, c.reads, c.writes));
        }
        makespan += worst;
      }
      if (base == 0.0) base = makespan;
      const std::string lane_key = "lanes" + std::to_string(lanes);
      bench::record_result("scaling_cpu_cores", entry.name,
                           lane_key + ".makespan_seconds", makespan);
      bench::record_result("scaling_cpu_cores", entry.name,
                           lane_key + ".speedup", base / makespan);
      row.push_back(util::Table::fmt_speedup(base / makespan));
      std::cerr << "  " << entry.name << " " << lanes
                << " lanes: " << util::Table::fmt(makespan, 5) << "s\n";
    }
    table.add_row(std::move(row));
  }

  analysis::print_header(
      "Extension: multi-core CPU strong scaling (modeled lane makespan, "
      "speedup vs 1 lane)");
  analysis::emit_table(table, bench::csv_path(cfg, "scaling_cpu_cores"));
  bench::emit_metrics(cfg);
  std::cout << "\nExpected: near-linear while every lane gets several "
               "work-requiring sources; sub-linear beyond that as the "
               "slowest chunk dominates (source-level load imbalance).\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
