#include "src/opt/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::opt {
namespace {

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
  for (auto mode :
       {GreedyMode::kPerType, GreedyMode::kGlobal, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    EXPECT_LE(result.selected.size(), 2u);
    s.validate_placement(result.placement);
  }
}

// n == 0: no incremental lanes exist, and every driver must still return an
// empty placement without running an argmax.
TEST(Greedy, EmptyCandidatesGiveEmptyPlacement) {
  const auto s = test::simple_scenario();
  const std::vector<pdcs::Candidate> none;
  for (auto mode :
       {GreedyMode::kPerType, GreedyMode::kGlobal, GreedyMode::kLazyGlobal}) {
    for (const bool quantize : {false, true}) {
      const auto result = select_strategies(s, none, mode,
                                            ObjectiveKind::kUtility, nullptr,
                                            quantize);
      EXPECT_TRUE(result.selected.empty());
      EXPECT_TRUE(result.placement.empty());
      EXPECT_DOUBLE_EQ(result.approx_utility, 0.0);
      EXPECT_DOUBLE_EQ(result.exact_utility, 0.0);
    }
  }
}

TEST(Greedy, LazyMatchesGlobalExactly) {
  const auto s = test::small_paper_scenario(21, 1, 1);
  hipo::Rng rng(2);
  const auto cands = synthetic_candidates(s, rng, 60);
  const auto global = select_strategies(s, cands, GreedyMode::kGlobal);
  const auto lazy = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  EXPECT_EQ(global.selected, lazy.selected);
  EXPECT_NEAR(global.approx_utility, lazy.approx_utility, 1e-12);
}

TEST(Greedy, SelectionOrderHasNonIncreasingGains) {
  const auto s = test::small_paper_scenario(22, 1, 1);
  hipo::Rng rng(3);
  const auto cands = synthetic_candidates(s, rng, 40);
  const auto result = select_strategies(s, cands, GreedyMode::kGlobal);
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

// The ½-approximation guarantee (Theorem 4.2's combinatorial core), checked
// against the exhaustive optimum on small random instances — for all three
// greedy modes.
class HalfApproxTest
    : public ::testing::TestWithParam<std::tuple<int, GreedyMode>> {};

TEST_P(HalfApproxTest, AtLeastHalfOfOptimum) {
  const auto [seed, mode] = GetParam();
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
  const auto result = select_strategies(s, cands, mode);
  EXPECT_GE(result.approx_utility, 0.5 * opt - 1e-9)
      << "greedy " << result.approx_utility << " vs opt " << opt;
}

INSTANTIATE_TEST_SUITE_P(
    RandomAllModes, HalfApproxTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(GreedyMode::kPerType,
                                         GreedyMode::kGlobal,
                                         GreedyMode::kLazyGlobal)));

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
  for (const auto mode : {GreedyMode::kPerType, GreedyMode::kGlobal,
                          GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    for (std::size_t i : result.selected) {
      EXPECT_EQ(cands[i].strategy.type, 0u);
    }
    s.validate_placement(result.placement);
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
  const auto global = select_strategies(s, cands, GreedyMode::kGlobal);
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
  const auto global = select_strategies(s, cands, GreedyMode::kGlobal);
  const auto lazy = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  ASSERT_EQ(global.selected, lazy.selected);
  EXPECT_EQ(global.selected, (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace hipo::opt
