#include "src/opt/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>

#include "src/fuzz/reference_greedy.hpp"
#include "src/obs/metrics.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::opt {
namespace {

using fuzz::reference_greedy;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The lazy result must be the eager reference's, bit for bit.
void expect_matches_reference(const GreedyResult& lazy,
                              const GreedyResult& eager,
                              const std::string& label) {
  EXPECT_EQ(lazy.selected, eager.selected) << label;
  EXPECT_EQ(bits(lazy.approx_utility), bits(eager.approx_utility)) << label;
  EXPECT_EQ(bits(lazy.exact_utility), bits(eager.exact_utility)) << label;
}

std::vector<pdcs::Candidate> synthetic_candidates(
    const model::Scenario& s, hipo::Rng& rng, std::size_t count) {
  std::vector<pdcs::Candidate> out;
  for (std::size_t i = 0; i < count; ++i) {
    pdcs::Candidate c;
    c.strategy.type = rng.below(s.num_charger_types());
    c.strategy.pos = {rng.uniform(1, 19), rng.uniform(1, 19)};
    c.strategy.orientation = rng.angle();
    for (std::size_t j = 0; j < s.num_devices(); ++j) {
      if (rng.uniform() < 0.4) {
        c.covered.push_back(j);
        c.powers.push_back(rng.uniform(0.004, 0.05));
      }
    }
    out.push_back(c);
  }
  return out;
}

/// Exhaustive optimum of f over independent sets (small instances only).
double brute_force_optimum(const model::Scenario& s,
                           std::span<const pdcs::Candidate> cands) {
  const ChargingObjective f(s, cands);
  const PartitionMatroid matroid = placement_matroid(s, cands);
  const std::size_t n = cands.size();
  double best = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) set.push_back(i);
    }
    if (!matroid.independent(set)) continue;
    best = std::max(best, f.value(set));
  }
  return best;
}

TEST(Greedy, RespectsBudgets) {
  const auto s = test::simple_scenario();  // budget: 2 chargers of type 0
  hipo::Rng rng(1);
  const auto cands = synthetic_candidates(s, rng, 12);
  for (auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    EXPECT_LE(result.selected.size(), 2u);
    s.validate_placement(result.placement);
  }
}

// n == 0: no incremental lanes exist, and every driver must still return an
// empty placement without building a heap.
TEST(Greedy, EmptyCandidatesGiveEmptyPlacement) {
  const auto s = test::simple_scenario();
  const std::vector<pdcs::Candidate> none;
  for (auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, none, mode);
    EXPECT_TRUE(result.selected.empty());
    EXPECT_TRUE(result.placement.empty());
    EXPECT_DOUBLE_EQ(result.approx_utility, 0.0);
    EXPECT_DOUBLE_EQ(result.exact_utility, 0.0);
    expect_matches_reference(result, reference_greedy(s, none, mode),
                             "empty pool");
  }
}

// "Global" is the eager matroid greedy: the lazy heap must reproduce it.
TEST(Greedy, LazyMatchesGlobalExactly) {
  const auto s = test::small_paper_scenario(21, 1, 1);
  hipo::Rng rng(2);
  const auto cands = synthetic_candidates(s, rng, 60);
  const auto global = reference_greedy(s, cands, GreedyMode::kLazyGlobal);
  const auto lazy = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  expect_matches_reference(lazy, global, "lazy vs eager global");
}

TEST(Greedy, SelectionOrderHasNonIncreasingGains) {
  const auto s = test::small_paper_scenario(22, 1, 1);
  hipo::Rng rng(3);
  const auto cands = synthetic_candidates(s, rng, 40);
  const auto result = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  const ChargingObjective f(s, cands);
  ChargingObjective::State state(f);
  double prev_gain = 1e9;
  for (std::size_t i : result.selected) {
    const double g = state.gain(i);
    EXPECT_LE(g, prev_gain + 1e-12);
    prev_gain = g;
    state.add(i);
  }
}

TEST(Greedy, ApproxUtilityMatchesObjective) {
  const auto s = test::simple_scenario();
  hipo::Rng rng(4);
  const auto cands = synthetic_candidates(s, rng, 10);
  const auto result = select_strategies(s, cands, GreedyMode::kPerType);
  const ChargingObjective f(s, cands);
  EXPECT_NEAR(result.approx_utility, f.value(result.selected), 1e-12);
}

// Which selection a HalfApproxTest instance checks: both lazy modes plus
// the eager matroid-global reference.
enum class Engine { kPerType, kEagerGlobal, kLazyGlobal };

// The ½-approximation guarantee (Theorem 4.2's combinatorial core), checked
// against the exhaustive optimum on small random instances — for both
// greedy modes and the eager global reference.
class HalfApproxTest
    : public ::testing::TestWithParam<std::tuple<int, Engine>> {};

TEST_P(HalfApproxTest, AtLeastHalfOfOptimum) {
  const auto [seed, engine] = GetParam();
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({geom::kPi, 0.5, 6.0});
  cfg.pair_params.push_back({120.0, 48.0});
  cfg.charger_counts = {2, 1};
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10),
                 test::device_at(10, 13), test::device_at(14, 14),
                 test::device_at(6, 9)};
  const model::Scenario s(std::move(cfg));
  hipo::Rng rng(static_cast<std::uint64_t>(seed) * 503 + 17);
  const auto cands = synthetic_candidates(s, rng, 12);

  const double opt = brute_force_optimum(s, cands);
  const auto result =
      engine == Engine::kEagerGlobal
          ? reference_greedy(s, cands, GreedyMode::kLazyGlobal)
          : select_strategies(s, cands,
                              engine == Engine::kPerType
                                  ? GreedyMode::kPerType
                                  : GreedyMode::kLazyGlobal);
  EXPECT_GE(result.approx_utility, 0.5 * opt - 1e-9)
      << "greedy " << result.approx_utility << " vs opt " << opt;
}

INSTANTIATE_TEST_SUITE_P(
    RandomAllModes, HalfApproxTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(Engine::kPerType,
                                         Engine::kEagerGlobal,
                                         Engine::kLazyGlobal)));

TEST(Greedy, PerTypeFillsTypesInOrder) {
  const auto s = test::small_paper_scenario(23, 1, 1);
  hipo::Rng rng(5);
  const auto cands = synthetic_candidates(s, rng, 60);
  const auto result = select_strategies(s, cands, GreedyMode::kPerType);
  // Selected types must be non-decreasing (Algorithm 3 iterates types).
  std::size_t prev = 0;
  for (std::size_t i : result.selected) {
    EXPECT_GE(cands[i].strategy.type, prev);
    prev = cands[i].strategy.type;
  }
}

TEST(Greedy, LogUtilityKindSelectsValidPlacement) {
  const auto s = test::simple_scenario();
  hipo::Rng rng(6);
  const auto cands = synthetic_candidates(s, rng, 12);
  const auto result = select_strategies(s, cands, GreedyMode::kPerType,
                                        ObjectiveKind::kLogUtility);
  s.validate_placement(result.placement);
  EXPECT_GT(result.approx_utility, 0.0);
}

TEST(Greedy, ZeroBudgetTypeNeverSelected) {
  // Regression (found by hipo_fuzz, pinned in
  // tests/corpus/fuzz-greedy-seed2762782085899333604.hipo): a charger type
  // with count 0 is a zero-capacity matroid part; the global greedy used to
  // argmax into it and trip the tracker's capacity assertion because the
  // retire-peers pass only runs after a part *fills up*.
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({geom::kPi, 2.0, 6.0});
  cfg.pair_params.push_back({100.0, 40.0});
  cfg.charger_counts = {2, 0};
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10)};
  const model::Scenario s(std::move(cfg));
  hipo::Rng rng(11);
  const auto cands = synthetic_candidates(s, rng, 40);
  for (const auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    for (std::size_t i : result.selected) {
      EXPECT_EQ(cands[i].strategy.type, 0u);
    }
    s.validate_placement(result.placement);
    expect_matches_reference(result, reference_greedy(s, cands, mode),
                             "mode " + std::to_string(static_cast<int>(mode)));
  }
}

TEST(Greedy, LazyMatchesGlobalOnNearTies) {
  // Regression (found by hipo_fuzz, pinned in
  // tests/corpus/fuzz-greedy-seed6414217550488616208.hipo): gains differing
  // by less than the old 1e-15 near-tie band made the eager scan keep the
  // earlier candidate while the lazy heap picked the strictly larger gain.
  // All variants now rank by exact comparison — strictly larger gain wins,
  // exact ties go to the lower index — so the outputs are bit-identical.
  auto cfg = test::simple_config();
  cfg.charger_counts = {1};
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  std::vector<pdcs::Candidate> cands(2);
  for (auto& c : cands) {
    c.strategy = {{10.0, 12.0}, 0.0, 0};
    c.covered = {0};
  }
  const double p = 0.01;
  cands[0].powers = {p};
  // One ulp more power: the gain difference (~3e-17 after the p_th
  // normalization) is far below the old 1e-15 band but strictly positive.
  cands[1].powers = {std::nextafter(p, 1.0)};
  const auto global = reference_greedy(s, cands, GreedyMode::kLazyGlobal);
  const auto lazy = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  ASSERT_EQ(global.selected, lazy.selected);
  EXPECT_EQ(global.selected, (std::vector<std::size_t>{1}));
  EXPECT_EQ(global.approx_utility, lazy.approx_utility);
  EXPECT_EQ(global.exact_utility, lazy.exact_utility);
}

TEST(Greedy, LazyMatchesGlobalOnExactTies) {
  // Bit-identical candidates: exact tie, both variants must take index 0.
  auto cfg = test::simple_config();
  cfg.charger_counts = {1};
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  std::vector<pdcs::Candidate> cands(2);
  for (auto& c : cands) {
    c.strategy = {{10.0, 12.0}, 0.0, 0};
    c.covered = {0};
    c.powers = {0.01};
  }
  const auto global = reference_greedy(s, cands, GreedyMode::kLazyGlobal);
  const auto lazy = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  ASSERT_EQ(global.selected, lazy.selected);
  EXPECT_EQ(global.selected, (std::vector<std::size_t>{0}));
}


// --- Algorithm 3 on the lazy heap -----------------------------------------

/// Three charger types over the simple scenario's region with the given
/// budgets, and `num_devices` identical omni devices on a row.
model::Scenario three_type_scenario(std::vector<int> counts,
                                    std::size_t num_devices) {
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({geom::kPi, 0.5, 6.0});
  cfg.charger_types.push_back({geom::kTwoPi, 1.0, 4.0});
  cfg.pair_params.push_back({120.0, 48.0});
  cfg.pair_params.push_back({80.0, 30.0});
  cfg.charger_counts = std::move(counts);
  cfg.devices.clear();
  for (std::size_t j = 0; j < num_devices; ++j) {
    cfg.devices.push_back(test::device_at(4.0 + 1.0 * j, 10.0));
  }
  return model::Scenario(std::move(cfg));
}

pdcs::Candidate row(std::size_t type, std::vector<std::size_t> covered,
                    std::vector<double> powers) {
  pdcs::Candidate c;
  c.strategy = {{10.0, 12.0}, 0.0, type};
  c.covered = std::move(covered);
  c.powers = std::move(powers);
  return c;
}

// Exact gain ties inside a phase go to the lower index, and a tie with a
// row of another type never crosses phases: phase 0 picks among type-0 rows
// only, phase 1 among type-1 rows on the state phase 0 left.
TEST(Greedy, PerTypeExactTiesWithinAndAcrossPhases) {
  const auto s = three_type_scenario({2, 1, 0}, 4);
  const std::vector<pdcs::Candidate> cands = {
      row(1, {0}, {0.01}),  // 0: ties every type-0 row, competes with none
      row(0, {2}, {0.01}),  // 1
      row(0, {1}, {0.01}),  // 2
      row(0, {0}, {0.01}),  // 3
      row(0, {1}, {0.01}),  // 4: same device as 2, higher index
      row(1, {3}, {0.01}),  // 5: ties with 0 in phase 1
  };
  const auto lazy = select_strategies(s, cands, GreedyMode::kPerType);
  // Phase 0: 1, 2, 3 all tie; the two lowest indices win. Phase 1: rows 0
  // and 5 still tie exactly (devices 0 and 3 are untouched), 0 wins.
  EXPECT_EQ(lazy.selected, (std::vector<std::size_t>{1, 2, 0}));
  expect_matches_reference(lazy,
                           reference_greedy(s, cands, GreedyMode::kPerType),
                           "ties");
}

// A zero-budget type with rows, a type with no rows at all, and a budget
// larger than its type's row count: the phase of the first two picks
// nothing, the last takes every positive-gain row it has.
TEST(Greedy, PerTypeZeroBudgetEmptyTypeAndOversizedBudget) {
  const auto s = three_type_scenario({0, 5, 1}, 3);
  const std::vector<pdcs::Candidate> cands = {
      row(0, {0, 1}, {0.02, 0.02}),  // budget 0: never selectable
      row(1, {0}, {0.01}),
      row(0, {2}, {0.03}),
      row(1, {1, 2}, {0.01, 0.005}),
  };
  for (const auto kind : {ObjectiveKind::kUtility, ObjectiveKind::kLogUtility}) {
    const auto lazy = select_strategies(s, cands, GreedyMode::kPerType, kind);
    EXPECT_EQ(lazy.selected, (std::vector<std::size_t>{3, 1}));
    s.validate_placement(lazy.placement);
    expect_matches_reference(
        lazy, reference_greedy(s, cands, GreedyMode::kPerType, kind),
        "kind " + std::to_string(static_cast<int>(kind)));
  }
}

// The lazy engine reproduces the eager reference bit for bit in both
// modes, for both objective kinds, with no pool, 1 and 4 workers, under
// every available kernel ISA — on a pool with random multi-type rows and
// many near and exact ties (powers drawn from a handful of levels).
TEST(Greedy, LazyMatchesReferenceAcrossKindThreadsIsa) {
  const auto s = three_type_scenario({3, 2, 4}, 12);
  hipo::Rng rng(31);
  std::vector<pdcs::Candidate> cands;
  const double levels[] = {0.004, 0.01, 0.01, 0.02, 0.05};
  for (int i = 0; i < 90; ++i) {
    pdcs::Candidate c = row(rng.below(3), {}, {});
    for (std::size_t j = 0; j < s.num_devices(); ++j) {
      if (rng.uniform() < 0.3) {
        c.covered.push_back(j);
        c.powers.push_back(levels[rng.below(5)]);
      }
    }
    cands.push_back(std::move(c));
  }
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (test::have_avx2()) isas.push_back(simd::Isa::kAvx2);
  test::IsaGuard guard;
  for (const auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    for (const auto kind :
         {ObjectiveKind::kUtility, ObjectiveKind::kLogUtility}) {
      simd::force_isa(simd::Isa::kScalar);
      const auto eager = reference_greedy(s, cands, mode, kind);
      ASSERT_FALSE(eager.selected.empty());
      for (const std::size_t workers : {0u, 1u, 4u}) {
        std::unique_ptr<parallel::ThreadPool> pool;
        if (workers > 0) {
          pool = std::make_unique<parallel::ThreadPool>(workers);
        }
        for (const simd::Isa isa : isas) {
          simd::force_isa(isa);
          expect_matches_reference(
              select_strategies(s, cands, mode, kind, pool.get()), eager,
              "mode " + std::to_string(static_cast<int>(mode)) + " kind " +
                  std::to_string(static_cast<int>(kind)) + " workers " +
                  std::to_string(workers) + " isa " + simd::isa_name(isa));
        }
      }
    }
  }
}

TEST(Greedy, ParseRejectsRemovedGlobalAndNamesLazy) {
  EXPECT_EQ(parse_greedy_mode("lazy"), GreedyMode::kLazyGlobal);
  EXPECT_EQ(parse_greedy_mode("per-type"), GreedyMode::kPerType);
  try {
    (void)parse_greedy_mode("global");
    FAIL() << "'global' was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'lazy'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_greedy_mode("bogus"), ConfigError);
}

// The report's explanation of zero-utility devices: a device with an empty
// CSR column is uncoverable; one whose rows all went unselected is
// unserved. Set only with metrics on; selection is unchanged. They are
// gauges of one selection: a second call reports the same counts.
TEST(Greedy, CountsUncoverableAndUnservedDevices) {
  const auto s = three_type_scenario({1, 0, 0}, 4);
  const std::vector<pdcs::Candidate> cands = {
      row(0, {0, 1}, {0.02, 0.02}),  // selected: serves devices 0 and 1
      row(0, {2}, {0.01}),           // loses to row 0: device 2 unserved
  };                                 // device 3: no row at all
  const auto off = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  (void)select_strategies(s, cands, GreedyMode::kLazyGlobal);
  const auto on = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  const auto uncoverable = obs::gauge("greedy.devices_uncoverable").value();
  const auto unserved = obs::gauge("greedy.devices_unserved").value();
  const auto pops = obs::counter("greedy.lazy_pops").value();
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
  EXPECT_EQ(on.selected, (std::vector<std::size_t>{0}));
  expect_matches_reference(on, off, "metrics on vs off");
  EXPECT_EQ(uncoverable, 1.0);
  EXPECT_EQ(unserved, 1.0);
  EXPECT_GT(pops, 0u);
}

}  // namespace
}  // namespace hipo::opt
