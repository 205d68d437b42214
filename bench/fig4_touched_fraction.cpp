// Figure 4: for every Case 2 scenario, the fraction of the graph's
// vertices touched by the update (|{v : t[v] != untouched}| / n), reported
// as a sorted distribution per graph.
//
// Paper findings at its scale: across 62,844 Case 2 scenarios the largest
// touched fraction was ~35%, and the vast majority of scenarios touched a
// tiny portion of the graph - the motivation for node-parallel work
// tracking.
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

using namespace bcdyn;

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const bench::CommonConfig cfg = bench::parse_common(cli);
  bench::warn_unused(cli);
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  util::Table table({"Graph", "Case2 scenarios", "Max touched", "Median",
                     "P90", "Share <= 1%"});
  util::Table scatter({"Graph", "Index", "TouchedFraction"});
  std::size_t total_scenarios = 0;
  double global_max = 0.0;

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    analysis::TouchedRecorder rec(entry.graph.num_vertices());
    analysis::run_cpu_dynamic(stream, approx, &rec);

    const auto sorted = rec.sorted_fractions();
    total_scenarios += sorted.size();
    const double p90 =
        sorted.empty() ? 0.0 : sorted[sorted.size() * 9 / 10];
    global_max = std::max(global_max, rec.max_fraction());
    bench::record_result("fig4", entry.name, "scenarios", rec.count());
    bench::record_result("fig4", entry.name, "max_touched",
                         rec.max_fraction());
    bench::record_result("fig4", entry.name, "median_touched",
                         rec.median_fraction());
    bench::record_result("fig4", entry.name, "p90_touched", p90);
    table.add_row({entry.name, std::to_string(rec.count()),
                   util::Table::fmt(100.0 * rec.max_fraction(), 2) + "%",
                   util::Table::fmt(100.0 * rec.median_fraction(), 3) + "%",
                   util::Table::fmt(100.0 * p90, 2) + "%",
                   util::Table::fmt(100.0 * rec.share_below(0.01), 1) + "%"});
    // Scatter series (the y-values of Fig. 4, sorted ascending).
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      scatter.add_row({entry.name, std::to_string(i),
                       util::Table::fmt(sorted[i], 6)});
    }
  }

  analysis::print_header(
      "Figure 4: portion of the graph touched per Case 2 scenario");
  analysis::emit_table(table, bench::csv_path(cfg, "fig4_touched_summary"));
  if (!cfg.csv_dir.empty()) {
    // The raw scatter series is CSV-only (thousands of rows).
    std::ofstream out(bench::csv_path(cfg, "fig4_touched_scatter"));
    if (out) scatter.print_csv(out);
  }
  bench::emit_metrics(cfg);
  std::cout << "\nTotal Case 2 scenarios observed: " << total_scenarios
            << "; global max touched fraction: "
            << util::Table::fmt(100.0 * global_max, 2)
            << "% (paper: 62,844 scenarios, max ~35%, mass near 0).\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
