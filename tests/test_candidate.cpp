#include "src/pdcs/candidate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/util/rng.hpp"
#include "tests/extract_reference.hpp"

namespace hipo::pdcs {
namespace {

using ref::CoverageMask;

Candidate make_candidate(std::vector<std::size_t> covered,
                         std::vector<double> powers, std::size_t type = 0) {
  Candidate c;
  c.strategy.type = type;
  c.covered = std::move(covered);
  c.powers = std::move(powers);
  return c;
}

TEST(CoverageMask, SetAndTest) {
  CoverageMask m(130);
  m.set(0);
  m.set(64);
  m.set(129);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(64));
  EXPECT_TRUE(m.test(129));
  EXPECT_FALSE(m.test(1));
  EXPECT_FALSE(m.test(128));
  EXPECT_EQ(m.count(), 3u);
}

TEST(CoverageMask, SubsetAcrossWords) {
  CoverageMask a(130), b(130);
  a.set(3);
  a.set(70);
  b.set(3);
  b.set(70);
  b.set(100);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
}

TEST(DominatedBy, StrictSubsetWithHigherPower) {
  const auto a = make_candidate({1, 3}, {0.1, 0.2});
  const auto b = make_candidate({1, 2, 3}, {0.1, 0.5, 0.3});
  EXPECT_TRUE(dominated_by(a, b));
  EXPECT_FALSE(dominated_by(b, a));
}

TEST(DominatedBy, SubsetButLowerPowerNotDominated) {
  const auto a = make_candidate({1}, {0.5});
  const auto b = make_candidate({1, 2}, {0.1, 0.1});
  EXPECT_FALSE(dominated_by(a, b));
}

TEST(DominatedBy, EquivalentCandidates) {
  const auto a = make_candidate({1, 2}, {0.1, 0.2});
  const auto b = make_candidate({1, 2}, {0.1, 0.2});
  EXPECT_TRUE(dominated_by(a, b));
  EXPECT_TRUE(dominated_by(b, a));
}

TEST(DominatedBy, DisjointSetsNotDominated) {
  const auto a = make_candidate({1}, {0.1});
  const auto b = make_candidate({2}, {0.1});
  EXPECT_FALSE(dominated_by(a, b));
  EXPECT_FALSE(dominated_by(b, a));
}

TEST(FilterDominated, KeepsMaximal) {
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({1}, {0.1}));
  cands.push_back(make_candidate({1, 2}, {0.1, 0.2}));
  cands.push_back(make_candidate({3}, {0.4}));
  const auto kept = filter_dominated(std::move(cands), 5);
  ASSERT_EQ(kept.size(), 2u);
}

TEST(FilterDominated, RemovesDuplicates) {
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({1, 2}, {0.1, 0.2}));
  cands.push_back(make_candidate({1, 2}, {0.1, 0.2}));
  const auto kept = filter_dominated(std::move(cands), 5);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(FilterDominated, DropsEmptyCoverage) {
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({}, {}));
  cands.push_back(make_candidate({1}, {0.1}));
  const auto kept = filter_dominated(std::move(cands), 5);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(FilterDominated, IncomparablePowersBothKept) {
  // Same coverage set, each better on a different device: neither dominates.
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({1, 2}, {0.5, 0.1}));
  cands.push_back(make_candidate({1, 2}, {0.1, 0.5}));
  const auto kept = filter_dominated(std::move(cands), 5);
  EXPECT_EQ(kept.size(), 2u);
}

// Property: after filtering, (a) no kept candidate is dominated by another
// kept candidate; (b) every input candidate is dominated by (or equal to)
// some kept candidate.
class FilterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterPropertyTest, SoundAndComplete) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 13);
  const std::size_t num_devices = 12;
  std::vector<Candidate> input;
  for (int i = 0; i < 60; ++i) {
    Candidate c;
    c.strategy.type = 0;
    for (std::size_t j = 0; j < num_devices; ++j) {
      if (rng.uniform() < 0.3) {
        c.covered.push_back(j);
        // Quantized powers so domination chains actually occur.
        c.powers.push_back(0.1 * static_cast<double>(1 + rng.below(3)));
      }
    }
    input.push_back(c);
  }
  auto copy = input;
  const auto kept = filter_dominated(std::move(copy), num_devices);

  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (i == k) continue;
      // Strict domination between distinct kept candidates is forbidden;
      // mutual equivalence would have been deduplicated.
      EXPECT_FALSE(dominated_by(kept[i], kept[k]) &&
                   !dominated_by(kept[k], kept[i]));
    }
  }
  for (const auto& orig : input) {
    if (orig.covered.empty()) continue;
    bool covered = false;
    for (const auto& k : kept) {
      if (dominated_by(orig, k)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FilterPropertyTest, ::testing::Range(0, 15));

/// Reference implementation of the dominance filter: the same sort followed
/// by a full scan of all kept candidates (the pre-inverted-index
/// algorithm). The production filter prunes the scan to the kept list of
/// the candidate's least-popular device; survivors must be identical.
std::vector<Candidate> filter_dominated_reference(
    std::vector<Candidate> candidates, std::size_t num_devices) {
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> total_power(candidates.size(), 0.0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (double p : candidates[i].powers) total_power[i] += p;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (candidates[x].covered.size() != candidates[y].covered.size())
      return candidates[x].covered.size() > candidates[y].covered.size();
    if (total_power[x] != total_power[y]) return total_power[x] > total_power[y];
    return x < y;
  });
  std::vector<Candidate> kept;
  std::vector<CoverageMask> kept_masks;
  for (std::size_t idx : order) {
    Candidate& cand = candidates[idx];
    if (cand.covers_nothing()) continue;
    CoverageMask mask(num_devices);
    for (std::size_t j : cand.covered) mask.set(j);
    bool dominated = false;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (mask.is_subset_of(kept_masks[k]) && dominated_by(cand, kept[k])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      kept.push_back(std::move(cand));
      kept_masks.push_back(std::move(mask));
    }
  }
  return kept;
}

class FilterEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterEquivalenceTest, MatchesFullScanReference) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const std::size_t num_devices = 1 + rng.below(20);
  std::vector<Candidate> input;
  const int n = 1 + static_cast<int>(rng.below(80));
  for (int i = 0; i < n; ++i) {
    Candidate c;
    c.strategy.type = 0;
    for (std::size_t j = 0; j < num_devices; ++j) {
      if (rng.uniform() < 0.4) {
        c.covered.push_back(j);
        c.powers.push_back(0.05 * static_cast<double>(1 + rng.below(4)));
      }
    }
    input.push_back(c);
  }
  auto a = input;
  auto b = input;
  const auto fast = filter_dominated(std::move(a), num_devices);
  const auto reference = filter_dominated_reference(std::move(b), num_devices);

  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].covered, reference[i].covered) << "survivor " << i;
    EXPECT_EQ(fast[i].powers, reference[i].powers) << "survivor " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FilterEquivalenceTest,
                         ::testing::Range(0, 20));

TEST(FilterDominated, SparseUniverseMatchesReference) {
  // The filter remaps covered ids onto their dense local universe so its
  // cost scales with the pool, not `num_devices` (extract_all runs it once
  // per device task against the global count). Survivors must still match
  // the reference when the covered ids are a scattered handful out of a
  // huge id space, including the last representable device.
  const std::size_t num_devices = 1'000'000;
  std::vector<Candidate> input;
  input.push_back(make_candidate({123, 500'000, 999'999}, {0.3, 0.3, 0.3}));
  input.push_back(make_candidate({123, 999'999}, {0.2, 0.2}));   // dominated
  input.push_back(make_candidate({123, 500'000}, {0.9, 0.1}));   // kept
  input.push_back(make_candidate({777'777}, {0.4}));             // disjoint
  input.push_back(make_candidate({123, 500'000, 999'999}, {0.3, 0.3, 0.3}));
  auto a = input;
  auto b = input;
  const auto fast = filter_dominated(std::move(a), num_devices);
  const auto reference = filter_dominated_reference(std::move(b), num_devices);
  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].covered, reference[i].covered) << "survivor " << i;
    EXPECT_EQ(fast[i].powers, reference[i].powers) << "survivor " << i;
  }
}


// The flat dominance core against the pointer-sort filter it replaced
// (tests/extract_reference.hpp), on pools built to stress the order and the
// ε-tolerant test: repeated sets with equal powers (equal totals, exact
// duplicates), the same sets with powers nudged by fractions and multiples
// of ε = 1e-12 (ε-dominance is not transitive, so the kept-only rule shows),
// and subsets with more power per device. Survivors and their order must
// match, through the index adapter and through DominanceFilter run directly
// on flat rows — one filter reused across pools of different universes.
class DominanceCoreTest : public ::testing::TestWithParam<int> {};

TEST_P(DominanceCoreTest, MatchesPointerSortReference) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 4099 + 17);
  DominanceFilter reused;
  for (int pool_round = 0; pool_round < 12; ++pool_round) {
    const std::size_t num_devices = 1 + rng.below(pool_round % 3 == 0 ? 150 : 12);
    std::vector<Candidate> input;
    const int bases = 1 + static_cast<int>(rng.below(12));
    for (int b = 0; b < bases; ++b) {
      Candidate base;
      for (std::size_t j = 0; j < num_devices; ++j) {
        if (rng.uniform() < 0.35) {
          base.covered.push_back(j);
          base.powers.push_back(0.125 * static_cast<double>(1 + rng.below(3)));
        }
      }
      input.push_back(base);
      const int variants = static_cast<int>(rng.below(6));
      for (int v = 0; v < variants; ++v) {
        Candidate c = base;
        switch (rng.below(4)) {
          case 0:  // exact duplicate
            break;
          case 1:  // ε-near powers
            for (double& p : c.powers) {
              p += 1e-12 * (static_cast<double>(rng.below(5)) - 2.0) * 0.75;
            }
            break;
          case 2:  // a subset with more power on one device
            if (c.covered.size() > 1) {
              const std::size_t drop = rng.below(c.covered.size());
              c.covered.erase(c.covered.begin() + static_cast<long>(drop));
              c.powers.erase(c.powers.begin() + static_cast<long>(drop));
              c.powers[rng.below(c.powers.size())] += 0.125;
            }
            break;
          default:  // an empty row
            c.covered.clear();
            c.powers.clear();
            break;
        }
        input.push_back(std::move(c));
      }
    }
    // Shuffle so equal keys arrive in mixed input order.
    for (std::size_t k = input.size(); k > 1; --k) {
      std::swap(input[k - 1], input[rng.below(k)]);
    }

    std::vector<const Candidate*> ptrs;
    for (const auto& c : input) ptrs.push_back(&c);
    const auto want = ref::filter_dominated_indices(ptrs, num_devices);
    EXPECT_EQ(filter_dominated_indices(ptrs, num_devices), want)
        << "round " << pool_round;

    CoverRows flat;
    for (const auto& c : input) {
      flat.begin_row();
      for (std::size_t k = 0; k < c.covered.size(); ++k) {
        flat.push(static_cast<std::uint32_t>(c.covered[k]), c.powers[k]);
      }
    }
    const auto kept = reused.run(flat, num_devices);
    EXPECT_EQ(std::vector<std::size_t>(kept.begin(), kept.end()), want)
        << "round " << pool_round;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DominanceCoreTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace hipo::pdcs
