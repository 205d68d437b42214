// Ablation: degree-1 vertex folding (Sariyuce et al., paper §II.C related
// work) for static exact BC. Reports how much of each suite graph folds
// away and the host wall-time speedup of folded vs plain Brandes.
//
// Flags: common flags (folding is exact-only, so --sources is ignored and
// graphs default to a smaller scale).
#include <iostream>

#include "bench_common.hpp"
#include "bc/brandes.hpp"
#include "bc/degree1_folding.hpp"
#include "util/stopwatch.hpp"

using namespace bcdyn;

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  bench::warn_unused(cli);
  if (!cli.has("scale")) cfg.scale = 0.08;  // exact BC: keep graphs small
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  util::Table table({"Graph", "Folded away", "Remaining m", "Plain (s)",
                     "Folded (s)", "Speedup", "Max |diff|"});
  for (const auto& entry : graphs) {
    util::Stopwatch plain_clock;
    const auto plain = betweenness_exact(entry.graph);
    const double plain_s = plain_clock.elapsed_s();

    FoldingStats stats;
    util::Stopwatch folded_clock;
    const auto folded = betweenness_exact_folded(entry.graph, &stats);
    const double folded_s = folded_clock.elapsed_s();

    double diff = 0.0;
    for (std::size_t v = 0; v < plain.size(); ++v) {
      diff = std::max(diff, std::abs(plain[v] - folded[v]) /
                                std::max(1.0, std::abs(plain[v])));
    }
    const double removed_share =
        100.0 * static_cast<double>(stats.removed) /
        static_cast<double>(entry.graph.num_vertices());
    // Host wall-clock keys carry "wall" so the perf-regression baseline
    // policy can exclude them (they are not deterministic across hosts).
    bench::record_result("ablation_folding", entry.name, "removed_share",
                         removed_share);
    bench::record_result("ablation_folding", entry.name, "remaining_edges",
                         static_cast<double>(stats.remaining_edges));
    bench::record_result("ablation_folding", entry.name, "plain_wall_seconds",
                         plain_s);
    bench::record_result("ablation_folding", entry.name, "folded_wall_seconds",
                         folded_s);
    bench::record_result("ablation_folding", entry.name, "wall_speedup",
                         plain_s / std::max(folded_s, 1e-9));
    bench::record_result("ablation_folding", entry.name, "max_rel_diff", diff);
    table.add_row({entry.name,
                   util::Table::fmt(removed_share, 1) + "%",
                   std::to_string(stats.remaining_edges),
                   util::Table::fmt(plain_s, 3),
                   util::Table::fmt(folded_s, 3),
                   util::Table::fmt_speedup(plain_s / std::max(folded_s, 1e-9)),
                   util::Table::fmt(diff, 12)});
  }

  analysis::print_header(
      "Ablation: degree-1 folding for static exact BC (Sariyuce et al.)");
  analysis::emit_table(table, bench::csv_path(cfg, "ablation_folding"));
  bench::emit_metrics(cfg);
  std::cout << "\nExpectation: leaf-heavy classes (caida-like router graphs) "
               "fold the most and speed up accordingly; clique-heavy classes "
               "(coPap, kron cores) barely fold. Scores must match plain "
               "Brandes to rounding.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
