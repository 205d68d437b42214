// Figure 2: distribution of the three update scenarios (Case 1: no work,
// Case 2: adjacent levels, Case 3: distance change) over every
// (insertion, source) pair, per graph.
//
// The paper reports, across its suite, Case 2 at ~37.3% of all scenarios
// and ~73.5% of work-requiring scenarios. The distribution is a property
// of the workload (graph class + random insertions), not of any engine, so
// the sequential engine replays the stream here.
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
  util::Table table({"Graph", "Scenarios", "Case 1", "Case 2", "Case 3",
                     "Case2 share of work"});
  analysis::ScenarioStats overall;

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    const auto run = analysis::run_cpu_dynamic(stream, approx);
    const auto& s = run.scenarios;
    overall += s;
    bench::record_result("fig2", entry.name, "scenarios", s.total());
    bench::record_result("fig2", entry.name, "case1_fraction",
                         s.fraction_case(1));
    bench::record_result("fig2", entry.name, "case2_fraction",
                         s.fraction_case(2));
    bench::record_result("fig2", entry.name, "case3_fraction",
                         s.fraction_case(3));
    table.add_row({entry.name, std::to_string(s.total()),
                   util::Table::fmt(100.0 * s.fraction_case(1), 1) + "%",
                   util::Table::fmt(100.0 * s.fraction_case(2), 1) + "%",
                   util::Table::fmt(100.0 * s.fraction_case(3), 1) + "%",
                   util::Table::fmt(100.0 * s.case2_share_of_work(), 1) + "%"});
  }
  table.add_row({"ALL", std::to_string(overall.total()),
                 util::Table::fmt(100.0 * overall.fraction_case(1), 1) + "%",
                 util::Table::fmt(100.0 * overall.fraction_case(2), 1) + "%",
                 util::Table::fmt(100.0 * overall.fraction_case(3), 1) + "%",
                 util::Table::fmt(100.0 * overall.case2_share_of_work(), 1) +
                     "%"});

  analysis::print_header("Figure 2: distribution of update scenarios");
  analysis::emit_table(table, bench::csv_path(cfg, "fig2_case_distribution"));
  trace::metrics().set_gauge("fig2.all.case2_share_of_work",
                             overall.case2_share_of_work());
  bench::emit_metrics(cfg);
  std::cout << "\nPaper (its suite/scale): Case 2 = 37.3% of all scenarios, "
               "73.5% of work-requiring (Case 2+3) scenarios.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
