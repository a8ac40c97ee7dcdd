// Workload `cold_solve`: core::solve on a cycle of seeded Sec. 6 paper
// scenarios (80 devices, 18 chargers, 2 obstacles) with one solver thread,
// each op followed by an independent exact re-evaluation of its placement.
// The traced run rebuilds the extraction from its public pieces.
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "src/core/solver.hpp"
#include "src/obs/metrics.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/pdcs/extract.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kScenarios = 16;
constexpr int kDeviceMultiplier = 8;  // 80 devices
constexpr int kChargerMultiplier = 3;  // 18 chargers
/// Nominal seconds per op with kCallers solving at once: sizes the fixed
/// op count from --seconds.
constexpr double kNominalOpSeconds = 0.73;
constexpr int kSetupRepeats = 3;
/// Concurrent callers of the timed closed loop and of the warm-up pass;
/// each runs whole single-threaded solves, one per core.
constexpr int kCallers = 4;

std::vector<std::string> make_texts(std::uint64_t seed) {
  std::vector<std::string> texts;
  for (int k = 0; k < kScenarios; ++k) {
    texts.push_back(paper_scenario_text(hipo::seed_combine(seed, k), 1,
                                        kDeviceMultiplier, kChargerMultiplier));
  }
  return texts;
}

hipo::core::SolveResult solve_one_thread(const hipo::model::Scenario& s) {
  return hipo::core::solve(s, hipo::core::SolveOptions{});
}

}  // namespace

Result run_cold_solve(const RunOptions& opt) {
  Result result;
  if (opt.trace) {
    const auto texts = make_texts(opt.seed);
    std::vector<Layers> probes;
    probes.push_back(probe_serve({texts[0]}, 1, opt.seed, result));
    probes.push_back(probe_shard(texts[0], 1, result));
    // The decomposition covers the first 8 scenarios: enough to average
    // over inputs while the traced run stays short.
    probes.push_back(probe_cold(
        std::vector<std::string>(texts.begin(), texts.begin() + 8), result));
    return finish_traced(opt, probes, std::move(result));
  }

  // Set-up, repeated: generate and parse the inputs, then one untimed
  // warm-up solve of every distinct input, spread over the kCallers
  // threads. The last repeat's state is kept.
  std::vector<double> setup_s;
  std::vector<hipo::model::Scenario> scenarios, independent;
  std::vector<hipo::model::Placement> warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Spans::Scope setup("setup");
    scenarios.clear();
    independent.clear();
    warm.clear();
    for (const auto& text : make_texts(opt.seed)) {
      scenarios.push_back(parse_scenario(text));
      independent.push_back(parse_scenario(text));
    }
    warm.resize(scenarios.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kCallers; ++t) {
      threads.emplace_back([&] {
        for (std::size_t k; (k = next++) < scenarios.size();) {
          warm[k] = solve_one_thread(scenarios[k]).placement;
        }
      });
    }
    for (auto& t : threads) t.join();
    setup_s.push_back(setup.elapsed_ms() / 1e3);
  }

  // Closed loop of kCallers callers, each taking the next op of the fixed
  // op list (whole cycles over the scenarios) until none is left.
  const int cycles = std::max(
      1, static_cast<int>(std::lround(opt.seconds * kCallers /
                                      (kNominalOpSeconds * kScenarios))));
  const std::size_t n_ops = static_cast<std::size_t>(cycles) * kScenarios;
  std::vector<double> op_ms(n_ops), write_ms(n_ops), read_ms(n_ops),
      utilities(n_ops);
  std::vector<std::string> failures(n_ops);
  std::atomic<std::size_t> next_op{0};
  Spans::Scope timed_phase("timed");
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (std::size_t i; (i = next_op++) < n_ops;) {
        const std::size_t k = i % kScenarios;
        const auto t0 = std::chrono::steady_clock::now();
        const auto solved = solve_one_thread(scenarios[k]);
        const auto t1 = std::chrono::steady_clock::now();
        const double exact = independent[k].placement_utility(solved.placement);
        const auto t2 = std::chrono::steady_clock::now();
        write_ms[i] = std::chrono::duration<double, std::milli>(t1 - t0).count();
        read_ms[i] = std::chrono::duration<double, std::milli>(t2 - t1).count();
        op_ms[i] = write_ms[i] + read_ms[i];
        utilities[i] = solved.utility;
        if (exact != solved.utility) {
          failures[i] = "solver utility differs from re-evaluation";
        } else if (!same_placement(solved.placement, warm[k])) {
          failures[i] = "placement differs from the warm-up solve";
        } else {
          try {
            independent[k].validate_placement(solved.placement);
          } catch (const hipo::ConfigError& e) {
            failures[i] = std::string("invalid placement: ") + e.what();
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  const double wall_s = timed_phase.elapsed_ms() / 1e3;
  result.attempted += n_ops;
  for (const auto& f : failures) {
    if (!f.empty()) result.fail("cold_solve: " + f);
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
  result.metrics["peak_rss_mb"] = {"MiB", self_peak_rss_mb(), {}};
  result.metrics["utility"] = {"ratio", mean_utility, utilities};
  result.facts["cycles"] = cycles;
  result.facts["callers"] = kCallers;
  result.facts["scenarios"] = kScenarios;
  return result;
}

Layers probe_cold(const std::vector<std::string>& texts, Result& result) {
  using hipo::pdcs::Candidate;
  const hipo::pdcs::ExtractOptions eopt;
  const std::vector<std::string> los_hits{"los_cache.hits"};
  const std::vector<std::string> los_all{"los_cache.hits", "los_cache.misses"};
  const std::vector<std::string> seg_early{"segment_index.segment_early_outs"};
  const std::vector<std::string> seg_all{"segment_index.segment_queries"};
  const std::vector<std::string> pops{"greedy.lazy_pops"};
  const std::vector<std::string> scanned{"coverage.rows_scanned"};

  double build_ms = 0, grid_ms = 0, positions_ms = 0, query_ms = 0,
         sweep_ms = 0, filter_task_ms = 0, filter_global_ms = 0, pack_ms = 0,
         greedy_ms = 0, eval_ms = 0, traced_ms = 0, untraced_ms = 0;
  double positions = 0, pairs = 0, queries = 0, sweep_rows = 0,
         task_in = 0, task_out = 0, global_in = 0, global_out = 0, nnz = 0;
  std::uint64_t los_hit = 0, los_total = 0, seg_out = 0, seg_total = 0,
                lazy_pops = 0, rows_scanned = 0;

  for (const auto& text : texts) {
    ++result.attempted;
    // Untraced reference: the op as the workload runs it.
    hipo::obs::set_metrics_enabled(false);
    Spans::global().enable(false);
    hipo::core::SolveResult reference;
    const auto reference_scenario = parse_scenario(text);
    untraced_ms += clock_ms([&] { reference = solve_one_thread(reference_scenario); });
    const auto reference_pool =
        hipo::pdcs::extract_all(reference_scenario, eopt).candidates;
    hipo::obs::set_metrics_enabled(true);
    Spans::global().enable(true);

    Spans::global().begin_op();
    Spans::Scope op("cold.op");
    std::optional<hipo::model::Scenario> s;
    build_ms += timed("model.scenario_build", [&] { s.emplace(parse_scenario(text)); });
    const std::size_t n = s->num_devices();
    std::optional<hipo::spatial::GridIndex> grid;
    grid_ms += timed("spatial.grid_build", [&] {
      std::vector<hipo::geom::Vec2> points;
      for (std::size_t j = 0; j < n; ++j) points.push_back(s->device(j).pos);
      grid.emplace(s->region(), std::move(points));
    });

    const std::uint64_t los_hit0 = counter_total(los_hits),
                        los_total0 = counter_total(los_all),
                        seg_out0 = counter_total(seg_early),
                        seg_total0 = counter_total(seg_all);
    // extract_device_task, rebuilt from its public pieces.
    std::vector<std::vector<Candidate>> by_type(s->num_charger_types());
    std::size_t raw = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Spans::Scope task("pdcs.task");
      hipo::model::LosCache los(*s);
      const auto oi = s->device(i).pos;
      for (std::size_t q = 0; q < s->num_charger_types(); ++q) {
        const double d_max = s->charger_type(q).d_max;
        std::vector<std::size_t> neighbors;
        query_ms += clock_ms([&] { neighbors = grid->query_radius(oi, 2.0 * d_max); });
        ++queries;

        std::vector<hipo::geom::Vec2> pts;
        positions_ms += timed("pdcs.positions", [&] {
          if (eopt.use_singleton) {
            pts = hipo::pdcs::singleton_candidate_positions(*s, q, i, eopt);
          }
          for (std::size_t j : neighbors) {
            if (j <= i) continue;
            ++pairs;
            auto pp = hipo::pdcs::pair_candidate_positions(*s, q, i, j, eopt);
            pts.insert(pts.end(), pp.begin(), pp.end());
          }
        });
        positions += pts.size();

        std::vector<Candidate> type_candidates;
        {
          Spans::Scope sweep("pdcs.sweep");
          for (const auto p : pts) {
            std::vector<std::size_t> pool;
            query_ms += clock_ms([&] {
              pool = grid->query_radius(p, d_max + hipo::geom::kCoverEps);
            });
            ++queries;
            std::vector<Candidate> cands;
            sweep_ms += clock_ms([&] {
              cands = hipo::pdcs::extract_point_case(*s, q, p, pool, &los);
            });
            for (auto& c : cands) type_candidates.push_back(std::move(c));
          }
        }
        sweep_rows += type_candidates.size();
        task_in += type_candidates.size();
        std::vector<Candidate> kept;
        filter_task_ms += timed("pdcs.filter_task", [&] {
          kept = hipo::pdcs::filter_dominated(std::move(type_candidates), n);
        });
        task_out += kept.size();
        raw += kept.size();
        for (auto& c : kept) by_type[c.strategy.type].push_back(std::move(c));
      }
    }
    los_hit += counter_total(los_hits) - los_hit0;
    los_total += counter_total(los_all) - los_total0;
    seg_out += counter_total(seg_early) - seg_out0;
    seg_total += counter_total(seg_all) - seg_total0;

    hipo::pdcs::ExtractionResult extraction;
    global_in += raw;
    filter_global_ms += timed("pdcs.filter_global", [&] {
      extraction = hipo::pdcs::finalize_by_type(std::move(by_type), raw, n, eopt);
    });
    global_out += extraction.candidates.size();

    hipo::opt::CoverageMatrix matrix;
    pack_ms += timed("opt.csr_pack", [&] {
      matrix = hipo::opt::CoverageMatrix(extraction.candidates, n);
    });
    nnz += matrix.nnz();
    const std::uint64_t pops0 = counter_total(pops), scanned0 = counter_total(scanned);
    hipo::opt::GreedyResult greedy;
    greedy_ms += timed("opt.greedy", [&] {
      greedy = hipo::opt::select_strategies(*s, matrix,
                                            hipo::opt::GreedyMode::kLazyGlobal);
    });
    lazy_pops += counter_total(pops) - pops0;
    rows_scanned += counter_total(scanned) - scanned0;
    double exact = 0.0;
    eval_ms += timed("model.exact_eval", [&] { exact = s->placement_utility(greedy.placement); });
    traced_ms += op.elapsed_ms();

    if (!same_candidates(extraction.candidates, reference_pool)) {
      result.fail("cold probe: decomposed extraction differs from extract_all");
    } else if (!same_candidates(extraction.candidates,
                                reference.extraction.candidates) ||
               !same_placement(greedy.placement, reference.placement) ||
               exact != reference.utility) {
      result.fail("cold probe: decomposed solve differs from core::solve");
    }
  }

  const double ops = static_cast<double>(texts.size());
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Layers l;
  l["model.scenario_build_ms"] = {"ms", build_ms / ops, {}};
  l["spatial.grid_build_ms"] = {"ms", grid_ms / ops, {}};
  l["pdcs.positions_ms"] = {"ms", positions_ms / ops, {}};
  l["pdcs.positions"] = {"count", positions / ops, {}};
  l["pdcs.pairs"] = {"count", pairs / ops, {}};
  l["spatial.query_ms"] = {"ms", query_ms / ops, {}};
  l["spatial.queries"] = {"count", queries / ops, {}};
  l["pdcs.sweep_ms"] = {"ms", sweep_ms / ops, {}};
  l["pdcs.sweep_rows"] = {"count", sweep_rows / ops, {}};
  l["model.los_hit_ratio"] = {"ratio", ratio(los_hit, los_total), {}};
  l["spatial.seg_early_out_ratio"] = {"ratio", ratio(seg_out, seg_total), {}};
  l["pdcs.filter_task_ms"] = {"ms", filter_task_ms / ops, {}};
  l["pdcs.filter_task_rows_in"] = {"count", task_in / ops, {}};
  l["pdcs.filter_task_rows_out"] = {"count", task_out / ops, {}};
  l["pdcs.filter_global_ms"] = {"ms", filter_global_ms / ops, {}};
  l["pdcs.filter_global_rows_in"] = {"count", global_in / ops, {}};
  l["pdcs.filter_global_rows_out"] = {"count", global_out / ops, {}};
  l["opt.csr_pack_ms"] = {"ms", pack_ms / ops, {}};
  l["opt.csr_nnz"] = {"count", nnz / ops, {}};
  l["opt.greedy_ms"] = {"ms", greedy_ms / ops, {}};
  l["greedy.lazy_pops"] = {"count", lazy_pops / ops, {}};
  l["coverage.rows_scanned"] = {"count", rows_scanned / ops, {}};
  l["model.exact_eval_ms"] = {"ms", eval_ms / ops, {}};
  l["trace.overhead_ratio"] = {"ratio", ratio(traced_ms, untraced_ms), {}};
  return l;
}

}  // namespace perfbench
