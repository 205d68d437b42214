// Table II: dynamic CPU algorithm vs dynamic GPU algorithms (edge- and
// node-parallel) on the same insertion stream, per graph.
//
// Times are the cost model's seconds (DESIGN.md §2): the CPU column uses
// the sequential engine's operation counters under the CPU coefficients;
// the GPU columns use the simulated device's makespan. The paper's shape:
// node-parallel beats the CPU by 24-110x, edge-parallel collapses toward
// 1x on large/deep graphs (del, kron) while node-parallel holds.
#include <cmath>
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
  const auto spec = sim::DeviceSpec::tesla_c2075();
  util::Table table({"Graph", "CPU Time (s)", "Method", "GPU Time (s)",
                     "Speedup"});
  double geo_edge = 0.0;
  double geo_node = 0.0;
  int count = 0;

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    std::cerr << "  " << entry.name << ": cpu..." << std::flush;
    const auto cpu = analysis::run_cpu_dynamic(stream, approx);
    std::cerr << " edge..." << std::flush;
    const auto edge =
        analysis::run_gpu_dynamic(stream, approx, Parallelism::kEdge, spec);
    std::cerr << " node..." << std::flush;
    const auto node =
        analysis::run_gpu_dynamic(stream, approx, Parallelism::kNode, spec);
    std::cerr << " done\n";

    if (cfg.verify) {
      const double de = analysis::max_abs_diff(cpu.final_bc, edge.final_bc);
      const double dn = analysis::max_abs_diff(cpu.final_bc, node.final_bc);
      if (de > 1e-6 || dn > 1e-6) {
        std::cerr << "VERIFY FAILED on " << entry.name << ": edge diff=" << de
                  << " node diff=" << dn << "\n";
        return 1;
      }
    }

    const double edge_speedup = cpu.modeled_seconds / edge.modeled_seconds;
    const double node_speedup = cpu.modeled_seconds / node.modeled_seconds;
    geo_edge += std::log(edge_speedup);
    geo_node += std::log(node_speedup);
    ++count;
    bench::record_result("table2", entry.name, "cpu_seconds",
                         cpu.modeled_seconds);
    bench::record_result("table2", entry.name, "edge_seconds",
                         edge.modeled_seconds);
    bench::record_result("table2", entry.name, "node_seconds",
                         node.modeled_seconds);
    bench::record_result("table2", entry.name, "edge_speedup", edge_speedup);
    bench::record_result("table2", entry.name, "node_speedup", node_speedup);
    table.add_row({entry.name, util::Table::fmt(cpu.modeled_seconds, 4),
                   "Edge", util::Table::fmt(edge.modeled_seconds, 4),
                   util::Table::fmt_speedup(edge_speedup)});
    table.add_row({"", "", "Node", util::Table::fmt(node.modeled_seconds, 4),
                   util::Table::fmt_speedup(node_speedup)});
  }

  analysis::print_header(
      "Table II: dynamic CPU vs dynamic GPU (edge / node parallel)");
  analysis::emit_table(table, bench::csv_path(cfg, "table2_dynamic_speedup"));
  if (count > 0) {
    bench::record_result("table2", "all", "geomean_edge_speedup",
                         std::exp(geo_edge / count));
    bench::record_result("table2", "all", "geomean_node_speedup",
                         std::exp(geo_node / count));
    std::cout << "\nGeometric-mean speedup over CPU: edge "
              << util::Table::fmt_speedup(std::exp(geo_edge / count))
              << ", node "
              << util::Table::fmt_speedup(std::exp(geo_node / count)) << "\n";
  }
  bench::emit_metrics(cfg);
  std::cout << "Paper shape: node >> edge >> 1x; edge collapses toward ~1x "
               "on del/kron, node reaches 20-110x.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
