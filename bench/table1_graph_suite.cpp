// Table I: the benchmark graph suite. Prints structural statistics of the
// generator-built stand-ins next to the paper's originals so the reader
// can judge how faithfully each class is represented at the chosen scale.
#include <iostream>

#include "bench_common.hpp"

using namespace bcdyn;

namespace {

struct PaperRow {
  const char* name;
  long long vertices;
  long long edges;
  const char* significance;
};

constexpr PaperRow kPaperRows[] = {
    {"caida", 192244, 609066, "Internet Router Level Graph"},
    {"coPap", 434102, 16036720, "Social Network"},
    {"del", 1048576, 3145686, "Random Triangulation"},
    {"eu", 862664, 16138468, "Web Crawl"},
    {"kron", 524288, 21780787, "Kronecker Graph"},
    {"pref", 100000, 499985, "Scale-free"},
    {"small", 100000, 499998, "Logarithmic Diameter"},
};

const PaperRow* paper_row(const std::string& name) {
  for (const auto& row : kPaperRows) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const bench::CommonConfig cfg = bench::parse_common(cli);
  bench::warn_unused(cli);
  const auto graphs = bench::build_graphs(cfg);

  util::Table table({"Name", "Significance", "Paper n", "Paper m", "Ours n",
                     "Ours m", "AvgDeg", "MaxDeg", "Diam~"});
  for (const auto& entry : graphs) {
    const auto s = compute_stats(entry.graph);
    const PaperRow* paper = paper_row(entry.name);
    bench::record_result("table1", entry.name, "vertices",
                         static_cast<double>(s.num_vertices));
    bench::record_result("table1", entry.name, "edges",
                         static_cast<double>(s.num_edges));
    bench::record_result("table1", entry.name, "avg_degree", s.avg_degree);
    bench::record_result("table1", entry.name, "max_degree",
                         static_cast<double>(s.max_degree));
    bench::record_result("table1", entry.name, "approx_diameter",
                         static_cast<double>(s.approx_diameter));
    table.add_row({entry.name,
                   paper != nullptr ? paper->significance : "(file)",
                   paper != nullptr ? std::to_string(paper->vertices) : "-",
                   paper != nullptr ? std::to_string(paper->edges) : "-",
                   std::to_string(s.num_vertices),
                   std::to_string(s.num_edges),
                   util::Table::fmt(s.avg_degree, 1),
                   std::to_string(s.max_degree),
                   std::to_string(s.approx_diameter)});
  }
  analysis::print_header("Table I: suite of benchmark graphs (paper vs ours)");
  analysis::emit_table(table, bench::csv_path(cfg, "table1_graph_suite"));
  bench::emit_metrics(cfg);
  std::cout << "\nScale the stand-ins with --scale (paper sizes need "
               "--scale >= 8 and correspondingly long runs), or pass real "
               "DIMACS-10 downloads via --graph-file.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
