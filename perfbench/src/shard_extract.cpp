// Workload `shard_extract`: the hipo_shard op at the 1k-device
// constant-density tier — shard::extract_sharded over 4 shards on 4 forked
// worker processes, the merged pool packed by opt::CoverageMatrixBuilder,
// then warm select_strategies — each op followed by an exact evaluation of
// its placement.
#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "src/obs/metrics.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/shard/plan.hpp"
#include "src/shard/runner.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kRegionScale = 5;         // 200 m × 200 m, 50 obstacles
constexpr int kDeviceMultiplier = 100;  // 1,000 devices
constexpr int kChargerMultiplier = 75;  // 450 chargers
/// Distinct scenarios per run: the op time follows the slowest shard, so a
/// second input halves the weight of one seed's shard imbalance.
constexpr int kScenarios = 2;
constexpr std::size_t kShards = 4;
constexpr std::size_t kProcesses = 4;
/// Nominal seconds per op: sizes the fixed op count from --seconds.
constexpr double kNominalOpSeconds = 1.6;
constexpr int kSetupRepeats = 3;

std::string make_text(std::uint64_t seed, int k) {
  return paper_scenario_text(hipo::seed_combine(seed, k), kRegionScale,
                             kDeviceMultiplier, kChargerMultiplier);
}

struct ShardOp {
  hipo::pdcs::ExtractionResult extraction;
  hipo::shard::RunnerStats stats;
  hipo::opt::GreedyResult greedy;
  double pack_ms = 0, greedy_ms = 0, nnz = 0;
};

/// The op: sharded extraction, CSR packing, warm greedy.
ShardOp shard_op(const hipo::model::Scenario& s) {
  ShardOp op;
  hipo::shard::RunnerOptions ropt;
  ropt.shards = kShards;
  ropt.processes = kProcesses;
  timed("shard.extract", [&] {
    op.extraction = hipo::shard::extract_sharded(s, ropt, &op.stats);
  });
  std::optional<hipo::opt::CoverageMatrix> matrix;
  op.pack_ms = timed("opt.csr_pack", [&] {
    hipo::opt::CoverageMatrixBuilder builder(s.num_devices());
    std::vector<std::uint32_t> covered;
    for (const auto& c : op.extraction.candidates) {
      covered.assign(c.covered.begin(), c.covered.end());
      builder.add_row(c.strategy, covered, c.powers);
    }
    matrix.emplace(std::move(builder).finish());
  });
  op.nnz = static_cast<double>(matrix->nnz());
  op.greedy_ms = timed("opt.greedy", [&] {
    op.greedy = hipo::opt::select_strategies(s, *matrix,
                                             hipo::opt::GreedyMode::kLazyGlobal);
  });
  return op;
}

/// In-process single-shard reference extraction (identical for any pool).
hipo::pdcs::ExtractionResult reference_extraction(const hipo::model::Scenario& s) {
  hipo::parallel::ThreadPool pool(4);
  return hipo::pdcs::extract_all(s, {}, &pool);
}

bool same_extraction(const hipo::pdcs::ExtractionResult& a,
                     const hipo::pdcs::ExtractionResult& b) {
  return a.raw_candidates == b.raw_candidates &&
         a.per_type_counts == b.per_type_counts &&
         same_candidates(a.candidates, b.candidates);
}

}  // namespace

Result run_shard_extract(const RunOptions& opt) {
  Result result;
  if (opt.trace) {
    const std::string text = make_text(opt.seed, 0);
    std::vector<Layers> probes;
    probes.push_back(probe_cold({text}, result));
    probes.push_back(probe_serve({text}, 1, opt.seed, result));
    probes.push_back(probe_shard(text, 2, result));
    return finish_traced(opt, probes, std::move(result));
  }

  // Set-up, repeated: generate and parse the inputs, then one untimed
  // warm-up op on every distinct input. The last repeat's state is kept.
  std::vector<double> setup_s;
  std::vector<hipo::model::Scenario> scenarios, independent;
  std::vector<ShardOp> warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Spans::Scope setup("setup");
    scenarios.clear();
    independent.clear();
    warm.clear();
    for (int k = 0; k < kScenarios; ++k) {
      const std::string text = make_text(opt.seed, k);
      scenarios.push_back(parse_scenario(text));
      independent.push_back(parse_scenario(text));
    }
    for (const auto& s : scenarios) warm.push_back(shard_op(s));
    setup_s.push_back(setup.elapsed_ms() / 1e3);
  }

  const int cycles = std::max(
      1, static_cast<int>(std::lround(opt.seconds /
                                      (kNominalOpSeconds * kScenarios))));
  std::vector<double> op_ms, write_ms, read_ms, utilities;
  Spans::Scope timed_phase("timed");
  for (int c = 0; c < cycles; ++c) {
    for (int k = 0; k < kScenarios; ++k) {
      ++result.attempted;
      Spans::Scope op("op");
      const ShardOp done = shard_op(scenarios[k]);
      const double write = op.elapsed_ms();
      const double exact =
          independent[k].placement_utility(done.greedy.placement);
      op_ms.push_back(op.elapsed_ms());
      write_ms.push_back(write);
      read_ms.push_back(op_ms.back() - write);
      utilities.push_back(exact);
      if (exact != done.greedy.exact_utility ||
          !same_placement(done.greedy.placement, warm[k].greedy.placement)) {
        result.fail("shard_extract: placement differs from the warm-up op");
      }
    }
  }
  const double wall_s = timed_phase.elapsed_ms() / 1e3;
  const double peak_mb = std::max(self_peak_rss_mb(), children_peak_rss_mb());

  // Once, untimed: each merged pool equals in-process extract_all.
  for (int k = 0; k < kScenarios; ++k) {
    ++result.attempted;
    if (!same_extraction(warm[k].extraction,
                         reference_extraction(scenarios[k]))) {
      result.fail("shard_extract: merged pool differs from extract_all");
    }
  }

  double mean_utility = 0.0;
  for (double u : utilities) mean_utility += u / utilities.size();
  result.metrics["setup_s"] = {"s", median(setup_s), setup_s};
  result.metrics["ops_per_s"] = {"1/s", op_ms.size() / wall_s, {}};
  result.metrics["op_p50_ms"] = {"ms", median(op_ms), op_ms};
  result.metrics["write_p50_ms"] = {"ms", median(write_ms), write_ms};
  result.metrics["write_p90_ms"] = {"ms", quantile(write_ms, 0.9), write_ms};
  result.metrics["read_p50_ms"] = {"ms", median(read_ms), read_ms};
  result.metrics["read_p90_ms"] = {"ms", quantile(read_ms, 0.9), read_ms};
  result.metrics["peak_rss_mb"] = {"MiB", peak_mb, {}};
  result.metrics["utility"] = {"ratio", mean_utility, utilities};
  result.facts["cycles"] = cycles;
  result.facts["scenarios"] = kScenarios;
  for (int k = 0; k < kScenarios; ++k) {
    result.facts["candidates_" + std::to_string(k)] =
        warm[k].extraction.candidates.size();
    result.facts["rows_" + std::to_string(k)] = warm[k].stats.rows;
  }
  return result;
}

Layers probe_shard(const std::string& text, int ops, Result& result) {
  const auto s = parse_scenario(text);
  const auto reference = reference_extraction(s);

  // Untraced op time, for the overhead ratio.
  hipo::obs::set_metrics_enabled(false);
  Spans::global().enable(false);
  const double untraced_ms = clock_ms([&] { shard_op(s); });
  hipo::obs::set_metrics_enabled(true);
  Spans::global().enable(true);

  double plan_ms = 0, busy_ms = 0, max_ms = 0, imbalance = 0, merge_ms = 0,
         overhead_ms = 0, dup = 0, pool_mb = 0, pack_ms = 0, greedy_ms = 0,
         nnz = 0, traced_ms = 0;
  for (int k = 0; k < ops; ++k) {
    ++result.attempted;
    Spans::global().begin_op();
    plan_ms += timed("shard.plan", [&] {
      hipo::shard::PlanOptions popt;
      popt.shards = kShards;
      hipo::shard::ShardPlan plan(s, popt);
    });
    ShardOp op;
    const double op_ms = timed("shard.op", [&] { op = shard_op(s); });
    traced_ms += op_ms;
    if (!same_extraction(op.extraction, reference)) {
      result.fail("shard probe: merged pool differs from extract_all");
    }
    const auto& secs = op.stats.shard_seconds;
    double sum = 0, mx = 0;
    for (double v : secs) {
      sum += v * 1e3;
      mx = std::max(mx, v * 1e3);
    }
    busy_ms += sum;
    max_ms += mx;
    imbalance += secs.empty() ? 0.0 : mx / (sum / secs.size());
    merge_ms += op.stats.merge_seconds * 1e3;
    overhead_ms += op_ms - mx - op.stats.merge_seconds * 1e3 - op.pack_ms -
                   op.greedy_ms;
    dup += static_cast<double>(op.stats.rows) / reference.raw_candidates;
    pool_mb += op.stats.pool_bytes / double(1 << 20);
    pack_ms += op.pack_ms;
    greedy_ms += op.greedy_ms;
    nnz += op.nnz;
  }
  Layers l;
  l["shard.plan_ms"] = {"ms", plan_ms / ops, {}};
  l["shard.worker_busy_ms"] = {"ms", busy_ms / ops, {}};
  l["shard.worker_max_ms"] = {"ms", max_ms / ops, {}};
  l["shard.imbalance"] = {"ratio", imbalance / ops, {}};
  l["shard.merge_ms"] = {"ms", merge_ms / ops, {}};
  l["shard.runner_overhead_ms"] = {"ms", overhead_ms / ops, {}};
  l["shard.halo_dup_ratio"] = {"ratio", dup / ops, {}};
  l["shard.pool_mb"] = {"MiB", pool_mb / ops, {}};
  l["shard.child_peak_rss_mb"] = {"MiB", children_peak_rss_mb(), {}};
  l["opt.csr_pack_ms"] = {"ms", pack_ms / ops, {}};
  l["opt.csr_nnz"] = {"count", nnz / ops, {}};
  l["opt.greedy_ms"] = {"ms", greedy_ms / ops, {}};
  l["trace.overhead_ratio"] = {"ratio", traced_ms / ops / untraced_ms, {}};
  return l;
}

}  // namespace perfbench
