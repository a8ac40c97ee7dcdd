// Gain-engine microbenchmark, swept over candidate-pool sizes: the
// row-gain kernel (scalar table vs the dispatched one) and end-to-end
// select_strategies in both greedy modes — lazy global and lazy per-type
// (Algorithm 3), the one engine both run on. Every measurement is also an
// equivalence check: the dispatched kernel must return the scalar bits for
// every row, and each mode's selection (indices + bit-pattern utilities)
// must equal the eager reference greedy's, or the benchmark aborts. Emits
// machine-readable JSON (BENCH_gain.json) alongside the human-readable
// table.
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/fuzz/reference_greedy.hpp"
#include "src/model/scenario.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/opt/simd/gain_kernels.hpp"
#include "src/pdcs/candidate.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

using namespace hipo;

namespace {

/// Obstacle-free instance sized for the objective, not the geometry: the
/// synthetic candidates below carry hand-rolled covered/powers lists, so
/// the scenario only has to supply device thresholds/weights and a charger
/// budget (4 types × 16 = 64 picks) for the matroid.
model::Scenario make_scenario(std::size_t num_devices, Rng& rng) {
  model::Scenario::Config cfg;
  cfg.region = {{0.0, 0.0}, {100.0, 100.0}};
  for (int q = 0; q < 4; ++q) {
    cfg.charger_types.push_back({geom::kTwoPi, 0.0, 15.0 + 5.0 * q});
    cfg.charger_counts.push_back(16);
  }
  cfg.device_types.push_back({geom::kTwoPi});
  for (int q = 0; q < 4; ++q) cfg.pair_params.push_back({100.0, 5.0});
  for (std::size_t j = 0; j < num_devices; ++j) {
    model::Device d;
    d.pos = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    d.orientation = 0.0;
    d.type = 0;
    d.p_th = 1.0;
    d.weight = 1.0;
    cfg.devices.push_back(d);
  }
  return model::Scenario(std::move(cfg));
}

/// Synthetic pool: each candidate covers 4–12 random distinct devices with
/// ring powers in [0.05, 0.4] — well under p_th, so gains stay positive and
/// the greedy always runs the full budget. Shaped like a post-filter PDCS
/// pool without paying for extraction at 32k.
std::vector<pdcs::Candidate> make_pool(std::size_t n, std::size_t num_devices,
                                       Rng& rng) {
  std::vector<pdcs::Candidate> pool;
  pool.reserve(n);
  std::vector<std::uint8_t> seen(num_devices, 0);
  for (std::size_t i = 0; i < n; ++i) {
    pdcs::Candidate c;
    c.strategy.pos = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    c.strategy.orientation = 0.0;
    c.strategy.type = i % 4;
    const std::size_t k = 4 + rng.below(9);
    for (std::size_t pick = 0; pick < k; ++pick) {
      const std::size_t j = rng.below(num_devices);
      if (seen[j]) continue;
      seen[j] = 1;
      c.covered.push_back(j);
      c.powers.push_back(rng.uniform(0.05, 0.4));
    }
    for (std::size_t j : c.covered) seen[j] = 0;
    pool.push_back(std::move(c));
  }
  return pool;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct SizeResult {
  std::size_t candidates = 0;
  double row_gain_scalar_ns = 0.0;
  double row_gain_dispatched_ns = 0.0;
  double lazy_global_ms = 0.0;
  double lazy_per_type_ms = 0.0;
  std::size_t picks_global = 0;
  std::size_t picks_per_type = 0;
  double row_gain_speedup() const {
    return row_gain_dispatched_ns > 0.0
               ? row_gain_scalar_ns / row_gain_dispatched_ns
               : 0.0;
  }
};

/// Device-side inputs of the utility row kernel: accumulated powers that
/// straddle p_th = 1 (both min() branches run), thresholds, weight/p_th.
struct DeviceLanes {
  std::vector<double> acc, th, wot;
};

DeviceLanes make_lanes(const model::Scenario& scenario, Rng& rng) {
  DeviceLanes lanes;
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    const model::Device& d = scenario.device(j);
    lanes.acc.push_back(rng.uniform(0.0, 1.2));
    lanes.th.push_back(d.p_th);
    lanes.wot.push_back(d.weight / d.p_th);
  }
  return lanes;
}

/// One pass of `kernels`' utility row gain over every row of `matrix`;
/// returns the per-row gains so the caller can compare variants bitwise.
std::vector<double> row_gains(const opt::simd::GainKernels& kernels,
                              const opt::CoverageMatrix& matrix,
                              const DeviceLanes& lanes) {
  std::vector<double> out(matrix.num_rows());
  for (std::size_t i = 0; i < matrix.num_rows(); ++i) {
    const auto covered = matrix.covered(i);
    out[i] = kernels.row_gain_utility_u32(
        covered.data(), matrix.powers(i).data(), covered.size(),
        lanes.acc.data(), lanes.th.data(), lanes.wot.data());
  }
  return out;
}

/// Best-of-`reps` seconds of one row-gain pass (see bench_micro_los.cpp
/// for why the minimum: spot load on a shared machine only ever inflates a
/// pass). Aborts unless the pass reproduces `want` bit for bit.
double time_row_gains(const opt::simd::GainKernels& kernels,
                      const opt::CoverageMatrix& matrix,
                      const DeviceLanes& lanes,
                      const std::vector<double>& want, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Stopwatch t;
    const std::vector<double> got = row_gains(kernels, matrix, lanes);
    const double s = t.seconds();
    for (std::size_t i = 0; i < got.size(); ++i) {
      HIPO_REQUIRE(bits_equal(got[i], want[i]),
                   "row gain differs from the scalar kernel at row " +
                       std::to_string(i));
    }
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

/// Best-of-`reps` milliseconds of select_strategies in `mode`; aborts
/// unless every run equals the eager reference greedy bit for bit.
double time_select(const model::Scenario& scenario,
                   std::span<const pdcs::Candidate> pool,
                   opt::GreedyMode mode, int reps, std::size_t& picks) {
  const opt::GreedyResult eager = fuzz::reference_greedy(scenario, pool, mode);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Stopwatch t;
    const opt::GreedyResult lazy =
        opt::select_strategies(scenario, pool, mode);
    const double ms = t.millis();
    HIPO_REQUIRE(lazy.selected == eager.selected,
                 "lazy selection differs from the eager reference");
    HIPO_REQUIRE(bits_equal(lazy.approx_utility, eager.approx_utility) &&
                     bits_equal(lazy.exact_utility, eager.exact_utility),
                 "lazy utilities not bit-identical to the eager reference");
    if (rep == 0 || ms < best) best = ms;
  }
  picks = eager.selected.size();
  return best;
}

SizeResult run_size(const model::Scenario& scenario,
                    std::span<const pdcs::Candidate> pool,
                    const DeviceLanes& lanes, int reps) {
  SizeResult out;
  out.candidates = pool.size();
  const opt::CoverageMatrix matrix(pool, scenario.num_devices());
  const opt::simd::GainKernels& scalar =
      opt::simd::kernels(opt::simd::Isa::kScalar);
  const std::vector<double> want = row_gains(scalar, matrix, lanes);
  const double rows = static_cast<double>(pool.size());
  out.row_gain_scalar_ns =
      time_row_gains(scalar, matrix, lanes, want, reps) / rows * 1e9;
  out.row_gain_dispatched_ns =
      time_row_gains(opt::simd::kernels(), matrix, lanes, want, reps) /
      rows * 1e9;
  out.lazy_global_ms = time_select(scenario, pool,
                                   opt::GreedyMode::kLazyGlobal, reps,
                                   out.picks_global);
  out.lazy_per_type_ms = time_select(scenario, pool, opt::GreedyMode::kPerType,
                                     reps, out.picks_per_type);
  HIPO_REQUIRE(out.picks_global > 0 && out.picks_per_type > 0,
               "greedy selected nothing");
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = cli.get_or("reps", 3);
  const int devices = cli.get_or("devices", 2000);
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", 42));
  const int max_size = cli.get_or("max-size", 32768);
  const std::string out_path =
      cli.get_or("out", std::string("BENCH_gain.json"));
  const std::string simd = cli.get_or("simd", "auto");
  cli.finish();

  if (simd == "scalar") {
    opt::simd::force_isa(opt::simd::Isa::kScalar);
  } else if (simd == "avx2") {
    opt::simd::force_isa(opt::simd::Isa::kAvx2);
  } else {
    HIPO_REQUIRE(simd == "auto", "--simd expects auto|scalar|avx2");
  }
  const char* kernel = opt::simd::isa_name(opt::simd::active_isa());

  Rng rng(seed);
  const auto scenario =
      make_scenario(static_cast<std::size_t>(devices), rng);
  const DeviceLanes lanes = make_lanes(scenario, rng);

  std::vector<SizeResult> results;
  Table table({"candidates", "row gain scalar ns", "row gain " +
                                                       std::string(kernel) +
                                                       " ns",
               "kernel speedup", "lazy global ms", "lazy per-type ms"});
  for (int n : {1024, 8192, 32768}) {
    if (n > max_size) continue;
    Rng pool_rng(seed_combine(seed, static_cast<std::uint64_t>(n)));
    const auto pool = make_pool(static_cast<std::size_t>(n),
                                scenario.num_devices(), pool_rng);
    results.push_back(run_size(scenario, pool, lanes, reps));
    const SizeResult& r = results.back();
    table.row()
        .add(n)
        .add(fmt(r.row_gain_scalar_ns))
        .add(fmt(r.row_gain_dispatched_ns))
        .add(fmt(r.row_gain_speedup()))
        .add(fmt(r.lazy_global_ms))
        .add(fmt(r.lazy_per_type_ms));
  }
  HIPO_REQUIRE(!results.empty(), "max-size excluded every pool size");
  table.print(std::cout);
  std::cout << "gain kernels: " << kernel
            << "; every row gain matched the scalar kernel and every "
               "selection its eager reference, bit for bit\n";

  std::ofstream json(out_path);
  HIPO_REQUIRE(json.good(), "cannot open output file " + out_path);
  json << "{\n  \"bench\": \"micro_gain\",\n  \"build\": "
       << obs::build_info_json() << ",\n  \"kernel\": \"" << kernel
       << "\",\n  \"reps\": " << reps << ",\n  \"devices\": " << devices
       << ",\n  \"seed\": " << seed << ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"candidates\": " << r.candidates
         << ", \"row_gain_scalar_ns\": " << r.row_gain_scalar_ns
         << ", \"row_gain_dispatched_ns\": " << r.row_gain_dispatched_ns
         << ", \"row_gain_speedup\": " << r.row_gain_speedup()
         << ", \"lazy_global_ms\": " << r.lazy_global_ms
         << ", \"lazy_per_type_ms\": " << r.lazy_per_type_ms
         << ", \"picks_global\": " << r.picks_global
         << ", \"picks_per_type\": " << r.picks_per_type << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  // Hard-coded true is honest: every measurement above HIPO_REQUIREs
  // bit-identical gains and selections before this line runs.
  json << "  ],\n  \"utilities_identical\": true,\n  \"peak_rss_bytes\": "
       << obs::peak_rss_bytes() << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
