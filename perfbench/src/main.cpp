// hipo_perfbench: end-to-end benchmark of the three HIPO paths users run:
// a cold solve (`cold_solve`), served reads beside delta writes
// (`serve_rw`) and sharded extraction (`shard_extract`).
//
//   hipo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it runs the per-layer probes instead and writes the span
// file and layer table into --out-dir. Either way the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the build stamp, host facts and per-metric quartiles.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric name the traced run reports, in BENCHMARK.json
/// order.
const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      // cold_solve decomposition
      "model.scenario_build_ms", "spatial.grid_build_ms", "pdcs.positions_ms",
      "pdcs.positions", "pdcs.pairs", "spatial.query_ms", "spatial.queries",
      "pdcs.sweep_ms", "pdcs.sweep_rows", "model.los_hit_ratio",
      "spatial.seg_early_out_ratio", "pdcs.filter_task_ms",
      "pdcs.filter_task_rows_in", "pdcs.filter_task_rows_out",
      "pdcs.filter_global_ms", "pdcs.filter_global_rows_in",
      "pdcs.filter_global_rows_out", "opt.csr_pack_ms", "opt.csr_nnz",
      "opt.greedy_ms", "greedy.lazy_pops", "coverage.rows_scanned",
      "model.exact_eval_ms",
      // serve_rw replay
      "serve.rtt_ms", "serve.handle_ms", "serve.transport_ms",
      "serve.wire_parse_ms", "serve.wire_dump_ms", "model.io_parse_ms",
      "serve.hash_ms", "opt.warm_greedy_ms", "model.eval_ms",
      "opt.delta_apply_ms", "opt.delta_tasks_regenerated",
      "opt.delta_tasks_total", "opt.delta_rows_erased",
      "opt.delta_rows_inserted", "opt.delta_full_rebuilds",
      "serve.cache_hit_ratio", "pool.tasks", "pool.help_steals",
      "pool.idle_waits",
      // shard_extract runner
      "shard.plan_ms", "shard.worker_busy_ms", "shard.worker_max_ms",
      "shard.imbalance", "shard.merge_ms", "shard.runner_overhead_ms",
      "shard.halo_dup_ratio", "shard.pool_mb", "shard.child_peak_rss_mb",
      // tracing cost
      "trace.overhead_ratio"};
  return names;
}

}  // namespace

Result finish_traced(const RunOptions& opt, const std::vector<Layers>& probes,
                     Result result) {
  for (const auto& probe : probes) {
    for (const auto& [name, metric] : probe) result.metrics[name] = metric;
  }
  for (const auto& name : per_layer_names()) {
    if (result.metrics.count(name) == 0) {
      throw std::logic_error("traced run is missing layer metric " + name);
    }
  }
  if (result.metrics.size() != per_layer_names().size()) {
    throw std::logic_error("traced run reports an unlisted layer metric");
  }

  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  std::ostringstream table;
  table << Spans::global().self_time_table() << "\n";
  char line[160];
  for (const auto& name : per_layer_names()) {
    const Metric& m = result.metrics[name];
    std::snprintf(line, sizeof line, "%-30s %16.6g %s\n", name.c_str(),
                  m.value, m.unit.c_str());
    table << line;
  }
  std::ofstream(stem + "-spans.json") << Spans::global().to_json();
  std::ofstream(stem + "-layers.txt") << table.str();
  std::cerr << table.str() << "spans: " << stem << "-spans.json\n";
  return result;
}

}  // namespace perfbench

namespace {

using perfbench::Result;

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hipo_perfbench: " << why
            << "\nusage: hipo_perfbench --workload cold_solve|serve_rw|"
               "shard_extract --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {  // std::stoi & co: bad or out of range
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.seconds <= 0) usage("--seconds must be positive");

  const double load_start = load_average();
  hipo::obs::set_metrics_enabled(opt.trace);
  perfbench::Spans::global().enable(opt.trace);
  Result result;
  try {
    if (opt.workload == "cold_solve") {
      result = perfbench::run_cold_solve(opt);
    } else if (opt.workload == "serve_rw") {
      result = perfbench::run_serve_rw(opt);
    } else if (opt.workload == "shard_extract") {
      result = perfbench::run_shard_extract(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "hipo_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::ostringstream detail;
  detail << "{\"detail\": {\"workload\": \"" << opt.workload
         << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
         << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
         << ", \"loadavg_start\": " << num(load_start)
         << ", \"loadavg_end\": " << num(load_average())
         << ", \"build\": " << hipo::obs::build_info_json() << ", \"facts\": {";
  const char* sep = "";
  for (const auto& [name, value] : result.facts) {
    detail << sep << "\"" << name << "\": " << num(value);
    sep = ", ";
  }
  detail << "}, \"quartiles\": {";
  sep = "";
  for (const auto& [name, m] : result.metrics) {
    if (m.samples.empty()) continue;
    detail << sep << "\"" << name << "\": {\"n\": " << m.samples.size()
           << ", \"q1\": " << num(perfbench::quantile(m.samples, 0.25))
           << ", \"median\": " << num(perfbench::median(m.samples))
           << ", \"q3\": " << num(perfbench::quantile(m.samples, 0.75)) << "}";
    sep = ", ";
  }
  detail << "}}}";
  std::cout << detail.str() << "\n";

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  sep = "";
  for (const auto& [name, m] : result.metrics) {
    std::cout << sep << "\"" << name << "\": {\"value\": " << num(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
