// hipo_shard — sharded PDCS extraction front end: plan spatial shards with
// a visibility halo, extract each shard's candidate pool (optionally in
// forked worker processes with a bounded-memory tiled generator), merge the
// pools deterministically, and feed the warm coverage matrix into the
// greedy selection pipeline. The merged pool — and therefore the placement —
// is bit-identical to a single-process `hipo_solve` run for any shard,
// process, or thread count.
//
//   hipo_shard --scenario field.hipo [--out placement.hipo]
//              [--demo paper|field] [--seed N]
//              [--shards N]         (spatial shards; 1 = degenerate grid)
//              [--procs N]          (forked worker processes; 0 = in-process)
//              [--threads N]        (in-process pool; ignored with --procs)
//              [--tile-tasks N]     (initial tasks per streaming tile)
//              [--mem-ceiling-mb N] (per-shard accounting ceiling; tile size
//                                    backs off instead of OOM; 0 = off)
//              [--greedy lazy|per-type]  (as in hipo_solve)
//              [--verify]           (also run single-process extract_all +
//                                    span-path greedy and require the pool
//                                    and placement to be bit-identical)
//              [--report]           (metrics report incl. peak RSS)
//              [--json FILE]        (run summary JSON: options, per-shard
//                                    stats, build provenance, peak RSS)
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/hipo.hpp"

using namespace hipo;

namespace {

model::Scenario load_scenario(Cli& cli) {
  if (const auto demo = cli.get("demo")) {
    if (*demo == "field") return model::make_field_scenario();
    if (*demo == "paper") {
      Rng rng(static_cast<std::uint64_t>(cli.get_or("seed", 1)));
      return model::make_paper_scenario(model::GenOptions{}, rng);
    }
    throw ConfigError("--demo expects 'paper' or 'field'");
  }
  const auto path = cli.get("scenario");
  HIPO_REQUIRE(path.has_value(),
               "pass --scenario <file> or --demo paper|field");
  return model::read_scenario_file(*path);
}

/// Pack a merged extraction into the warm CoverageMatrix the greedy drivers
/// run on. Row order == candidate order, so the matrix is bit-identical to
/// the one the span overload of select_strategies would build.
opt::CoverageMatrix build_matrix(const model::Scenario& scenario,
                                 const pdcs::ExtractionResult& extraction) {
  opt::CoverageMatrixBuilder builder(scenario.num_devices());
  std::vector<std::uint32_t> covered;
  for (const auto& c : extraction.candidates) {
    covered.assign(c.covered.begin(), c.covered.end());
    builder.add_row(c.strategy, covered, c.powers);
  }
  return std::move(builder).finish();
}

bool same_candidates(const pdcs::ExtractionResult& a,
                     const pdcs::ExtractionResult& b) {
  if (a.candidates.size() != b.candidates.size()) return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const auto& x = a.candidates[i];
    const auto& y = b.candidates[i];
    if (std::memcmp(&x.strategy, &y.strategy, sizeof(model::Strategy)) != 0 ||
        x.covered != y.covered || x.powers != y.powers) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const bool report = cli.has("report");
    const auto json_path = cli.get("json");
    if (report || json_path) obs::set_metrics_enabled(true);

    const auto scenario = load_scenario(cli);

    shard::RunnerOptions opt;
    opt.shards = static_cast<std::size_t>(cli.get_or("shards", 1));
    opt.processes = static_cast<std::size_t>(cli.get_or("procs", 0));
    opt.tile.tile_tasks = static_cast<std::size_t>(cli.get_or("tile-tasks", 64));
    const int ceiling_mb = cli.get_or("mem-ceiling-mb", 0);
    HIPO_REQUIRE(ceiling_mb >= 0, "--mem-ceiling-mb must be >= 0");
    opt.tile.mem_ceiling_bytes =
        static_cast<std::size_t>(ceiling_mb) << 20;

    const int threads = cli.get_or("threads", 0);
    HIPO_REQUIRE(threads >= 0, "--threads must be >= 0 (0 = hardware)");
    parallel::ThreadPool pool(static_cast<std::size_t>(threads));
    if (opt.processes == 0) opt.pool = &pool;

    const auto greedy_mode =
        opt::parse_greedy_mode(cli.get_or("greedy", std::string("lazy")));

    const bool verify = cli.has("verify");
    const auto out = cli.get("out");
    cli.finish();

    shard::RunnerStats stats;
    obs::Stopwatch extract_watch;
    const auto extraction = shard::extract_sharded(scenario, opt, &stats);
    const double extract_seconds = extract_watch.seconds();

    const auto matrix = build_matrix(scenario, extraction);
    obs::Stopwatch greedy_watch;
    const auto greedy = opt::select_strategies(
        scenario, matrix, greedy_mode, opt::ObjectiveKind::kUtility, &pool);
    const double greedy_seconds = greedy_watch.seconds();
    scenario.validate_placement(greedy.placement);

    std::cout << "scenario: " << scenario.num_devices() << " devices, "
              << scenario.num_chargers() << " charger budget, "
              << scenario.num_obstacles() << " obstacles\n";
    std::cout << "shards: " << stats.shards << " ("
              << (stats.processes > 0
                      ? std::to_string(stats.processes) + " worker process(es)"
                      : std::string("in-process"))
              << "), " << stats.rows << " pooled rows, "
              << stats.tile_backoffs << " tile backoff(s)\n";
    std::cout << "extraction: " << format_double(extract_seconds * 1e3, 1)
              << " ms (merge " << format_double(stats.merge_seconds * 1e3, 1)
              << " ms), " << extraction.candidates.size()
              << " candidates after global filter\n";
    std::cout << "peak shard arena: " << stats.peak_shard_bytes
              << " bytes; merged pools: " << stats.pool_bytes << " bytes";
    if (opt.tile.mem_ceiling_bytes != 0) {
      std::cout << " (ceiling " << opt.tile.mem_ceiling_bytes << ")";
    }
    std::cout << "\n";
    std::cout << "placement: " << greedy.placement.size()
              << " chargers, utility "
              << format_double(greedy.exact_utility, 4) << " (greedy "
              << format_double(greedy_seconds * 1e3, 1) << " ms)\n";
    if (const auto rss = obs::peak_rss_bytes(); rss != 0) {
      std::cout << "peak RSS: " << (rss >> 20) << " MiB\n";
    }

    if (verify) {
      const auto reference = pdcs::extract_all(scenario, opt.extract, &pool);
      HIPO_ASSERT_MSG(same_candidates(reference, extraction),
                      "--verify: sharded candidate pool diverged from "
                      "single-process extract_all");
      const auto ref_greedy =
          opt::select_strategies(scenario, reference.candidates, greedy_mode,
                                 opt::ObjectiveKind::kUtility, &pool);
      HIPO_ASSERT_MSG(
          ref_greedy.placement.size() == greedy.placement.size() &&
              std::memcmp(ref_greedy.placement.data(), greedy.placement.data(),
                          greedy.placement.size() * sizeof(model::Strategy)) ==
                  0,
          "--verify: warm placement diverged from the span-path greedy");
      std::cout << "verified: pool and placement bit-identical to "
                   "single-process extraction\n";
    }

    if (out) {
      model::write_placement_file(*out, greedy.placement);
      std::cout << "placement written to " << *out << "\n";
    }

    if (report) {
      std::cout << "\n";
      obs::print_report(obs::metrics_snapshot(), std::cout);
    }
    if (json_path) {
      std::ofstream os(*json_path);
      if (!os) throw ConfigError("cannot open JSON file '" + *json_path + "'");
      os << "{\n  \"tool\": \"hipo_shard\",\n  \"build\": "
         << obs::build_info_json() << ",\n";
      os << "  \"shards\": " << stats.shards
         << ",\n  \"processes\": " << stats.processes
         << ",\n  \"tile_tasks\": " << opt.tile.tile_tasks
         << ",\n  \"mem_ceiling_bytes\": " << opt.tile.mem_ceiling_bytes
         << ",\n  \"rows\": " << stats.rows
         << ",\n  \"tile_backoffs\": " << stats.tile_backoffs
         << ",\n  \"peak_shard_bytes\": " << stats.peak_shard_bytes
         << ",\n  \"pool_bytes\": " << stats.pool_bytes
         << ",\n  \"extract_seconds\": " << obs::json_double(extract_seconds)
         << ",\n  \"merge_seconds\": " << obs::json_double(stats.merge_seconds)
         << ",\n  \"greedy_seconds\": " << obs::json_double(greedy_seconds)
         << ",\n  \"candidates\": " << extraction.candidates.size()
         << ",\n  \"utility\": " << obs::json_double(greedy.exact_utility)
         << ",\n  \"verified\": " << (verify ? "true" : "false")
         << ",\n  \"peak_rss_bytes\": " << obs::peak_rss_bytes()
         << ",\n  \"shard_seconds\": [";
      for (std::size_t k = 0; k < stats.shard_seconds.size(); ++k) {
        os << (k ? ", " : "") << obs::json_double(stats.shard_seconds[k]);
      }
      os << "]\n}\n";
      std::cout << "run summary written to " << *json_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hipo_shard: " << e.what() << "\n";
    return 1;
  }
}
