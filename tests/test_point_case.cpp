#include "src/pdcs/point_case.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "src/geometry/angles.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::pdcs {
namespace {

using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

std::vector<std::size_t> all_devices(const model::Scenario& s) {
  std::vector<std::size_t> v(s.num_devices());
  for (std::size_t j = 0; j < v.size(); ++j) v[j] = j;
  return v;
}

// --- Reference sweep --------------------------------------------------------
// The per-orientation formulation of Algorithm 1 that PointSweep replaced,
// kept verbatim as the byte-identity reference: gate every pool device with
// orientable_covers, re-run the full Eq. (1) test through
// Scenario::approx_power for every (orientation, device) pair, then run the
// general dominance filter.

std::vector<std::size_t> reference_orientable_covers(
    const model::Scenario& scenario, std::size_t charger_type, Vec2 pos,
    std::span<const std::size_t> pool, model::LosCache* cache) {
  std::vector<std::size_t> out;
  const auto& ct = scenario.charger_type(charger_type);
  for (std::size_t j : pool) {
    const auto& dev = scenario.device(j);
    const Vec2 so = dev.pos - pos;
    const double d = so.norm();
    if (d < ct.d_min - geom::kCoverEps || d > ct.d_max + geom::kCoverEps)
      continue;
    if (d <= geom::kEps) continue;
    const double recv_angle = scenario.device_type(dev.type).angle;
    if (recv_angle < geom::kTwoPi) {
      const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
      const double chg_angle =
          geom::angle_distance((-so).angle(), dev.orientation);
      if (chg_angle > recv_angle / 2.0 + ang_eps) continue;
    }
    const bool los = cache != nullptr ? cache->line_of_sight(pos, j)
                                      : scenario.line_of_sight(pos, dev.pos);
    if (!los) continue;
    out.push_back(j);
  }
  return out;
}

std::vector<Candidate> reference_point_case(const model::Scenario& scenario,
                                            std::size_t charger_type,
                                            Vec2 pos,
                                            std::span<const std::size_t> pool,
                                            model::LosCache* cache) {
  std::vector<Candidate> out;
  if (!scenario.position_feasible(pos)) return out;

  const std::vector<std::size_t> coverable =
      reference_orientable_covers(scenario, charger_type, pos, pool, cache);
  if (coverable.empty()) return out;

  const double alpha = scenario.charger_type(charger_type).angle;

  std::vector<double> theta(coverable.size());
  for (std::size_t i = 0; i < coverable.size(); ++i) {
    theta[i] = geom::norm_angle(
        (scenario.device(coverable[i]).pos - pos).angle());
  }

  std::vector<double> orientations;
  if (alpha >= geom::kTwoPi) {
    orientations.push_back(0.0);
  } else {
    orientations.reserve(theta.size());
    for (double t : theta) orientations.push_back(geom::norm_angle(t + alpha / 2.0));
    std::sort(orientations.begin(), orientations.end());
    orientations.erase(std::unique(orientations.begin(), orientations.end(),
                                   [](double a, double b) {
                                     return std::abs(a - b) <= 1e-12;
                                   }),
                       orientations.end());
  }

  out.reserve(orientations.size());
  for (double phi : orientations) {
    Candidate cand;
    cand.strategy = model::Strategy{pos, phi, charger_type};
    for (std::size_t i = 0; i < coverable.size(); ++i) {
      const std::size_t j = coverable[i];
      if (alpha < geom::kTwoPi &&
          geom::angle_distance(theta[i], phi) > alpha / 2.0 + 1e-9)
        continue;
      const double p = cache != nullptr
                           ? cache->approx_power(cand.strategy, j)
                           : scenario.approx_power(cand.strategy, j);
      if (p > 0.0) {
        cand.covered.push_back(j);
        cand.powers.push_back(p);
      }
    }
    if (!cand.covers_nothing()) out.push_back(std::move(cand));
  }

  return filter_dominated(std::move(out), scenario.num_devices());
}

// Byte-level comparison: strategy bits, covered lists, power bits, order.
std::string first_difference(const std::vector<Candidate>& got,
                             const std::vector<Candidate>& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto& a = got[k];
    const auto& b = want[k];
    if (bits(a.strategy.pos.x) != bits(b.strategy.pos.x) ||
        bits(a.strategy.pos.y) != bits(b.strategy.pos.y) ||
        bits(a.strategy.orientation) != bits(b.strategy.orientation) ||
        a.strategy.type != b.strategy.type) {
      return "strategy of candidate " + std::to_string(k);
    }
    if (a.covered != b.covered) {
      return "covered of candidate " + std::to_string(k);
    }
    if (a.powers.size() != b.powers.size()) {
      return "powers of candidate " + std::to_string(k);
    }
    for (std::size_t i = 0; i < a.powers.size(); ++i) {
      if (bits(a.powers[i]) != bits(b.powers[i])) {
        return "power bits of candidate " + std::to_string(k);
      }
    }
  }
  return {};
}

model::Scenario reference_scenario(std::uint64_t seed, int obstacles,
                                   double charge_angle_scale,
                                   double recv_angle_scale = 1.0) {
  model::GenOptions opt;
  opt.device_multiplier = 3;
  opt.charger_multiplier = 1;
  opt.num_obstacles = obstacles;
  opt.charge_angle_scale = charge_angle_scale;
  opt.recv_angle_scale = recv_angle_scale;
  Rng rng(seed);
  return model::make_paper_scenario(opt, rng);
}

/// Probe positions: uniform random points, points exactly on device ring
/// radii (at the device's bearing axes and a random azimuth), points on a
/// device (d ≤ kEps for that device), and Algorithm 4's own pair
/// constructions.
std::vector<Vec2> reference_positions(const model::Scenario& s,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> out;
  for (int k = 0; k < 60; ++k) {
    out.push_back({rng.uniform(0, 40), rng.uniform(0, 40)});
  }
  const std::size_t n = s.num_devices();
  for (std::size_t k = 0; k < 6; ++k) {
    const std::size_t j = rng.below(n);
    const std::size_t q = rng.below(s.num_charger_types());
    const Vec2 o = s.device(j).pos;
    out.push_back(o);
    for (double r : ring_radii(s, q, j)) {
      out.push_back(o + Vec2{r, 0.0});
      out.push_back(o + Vec2{0.0, -r});
      const double a = rng.angle();
      out.push_back(o + Vec2{r * std::cos(a), r * std::sin(a)});
    }
  }
  const ExtractOptions eopt;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t i = rng.below(n);
    const std::size_t j = rng.below(n);
    if (i == j) continue;
    const std::size_t q = rng.below(s.num_charger_types());
    for (Vec2 p : pair_candidate_positions(s, q, i, j, eopt)) out.push_back(p);
  }
  return out;
}

struct ReferenceCase {
  int obstacles;
  double charge_angle_scale;
  double recv_angle_scale;
};

class PointSweepReferenceTest
    : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(PointSweepReferenceTest, ByteIdenticalToPerOrientationSweep) {
  const ReferenceCase rc = GetParam();
  std::size_t compared = 0, nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto s = reference_scenario(seed * 37 + rc.obstacles, rc.obstacles,
                                      rc.charge_angle_scale,
                                      rc.recv_angle_scale);
    ASSERT_EQ(s.num_obstacles(), static_cast<std::size_t>(rc.obstacles));
    std::vector<Vec2> points;
    for (std::size_t j = 0; j < s.num_devices(); ++j) {
      points.push_back(s.device(j).pos);
    }
    const spatial::GridIndex grid(s.region(), std::move(points));
    const auto all = all_devices(s);
    for (const Vec2 pos : reference_positions(s, seed)) {
      for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
        const auto near =
            grid.query_radius(pos, s.charger_type(q).d_max + geom::kCoverEps);
        for (const auto* pool : {&near, &all}) {
          const auto want = reference_point_case(s, q, pos, *pool, nullptr);
          const auto got = extract_point_case(s, q, pos, *pool);
          ASSERT_EQ(first_difference(got, want), "")
              << "pos " << pos << " type " << q << " seed " << seed;
          model::LosCache want_cache(s);
          model::LosCache got_cache(s);
          ASSERT_EQ(first_difference(
                        extract_point_case(s, q, pos, *pool, &got_cache),
                        reference_point_case(s, q, pos, *pool, &want_cache)),
                    "")
              << "with cache: pos " << pos << " type " << q;
          ASSERT_EQ(orientable_covers(s, q, pos, *pool),
                    reference_orientable_covers(s, q, pos, *pool, nullptr));
          ++compared;
          if (!want.empty()) ++nonempty;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(nonempty, compared / 10);
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, PointSweepReferenceTest,
    ::testing::Values(ReferenceCase{0, 1.0, 1.0}, ReferenceCase{2, 1.0, 1.0},
                      ReferenceCase{8, 1.0, 1.0}, ReferenceCase{2, 0.5, 1.0},
                      ReferenceCase{2, 2.5, 1.0}, ReferenceCase{8, 12.0, 1.0},
                      ReferenceCase{2, 1.0, 12.0},
                      ReferenceCase{8, 2.5, 12.0}),
    [](const ::testing::TestParamInfo<ReferenceCase>& info) {
      const auto scale = [](double v) {
        std::string t = std::to_string(static_cast<int>(v * 10));
        return t;
      };
      return "obs" + std::to_string(info.param.obstacles) + "_charge" +
             scale(info.param.charge_angle_scale) + "_recv" +
             scale(info.param.recv_angle_scale);
    });

// Devices placed a hair past a sector boundary, at distances where the
// Eq. (1) slack kCoverEps/d is above, near and below the sweep's 1e-9: the
// two charger-sector comparisons each decide some of these cases, and the
// sweep must make both exactly as the reference does.
TEST(PointSweep, BoundaryMarginsMatchReference) {
  auto cfg = test::simple_config();
  cfg.charger_types = {{kPi / 2.0, 1.0, 2000.0}};
  cfg.region.lo = {0.0, 0.0};
  cfg.region.hi = {4000.0, 4000.0};
  const Vec2 center{2000.0, 2000.0};
  const double alpha = cfg.charger_types[0].angle;
  const auto at = [&](double angle, double d) {
    return test::device_at(center.x + d * std::cos(angle),
                           center.y + d * std::sin(angle));
  };
  cfg.devices.push_back(at(0.0, 10.0));
  for (double delta : {-2e-9, -5e-10, 0.0, 5e-10, 2e-9, 5e-9, 2e-8}) {
    for (double d : {10.0, 150.0, 1500.0}) {
      cfg.devices.push_back(at(alpha + delta, d));
    }
  }
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto want = reference_point_case(s, 0, center, pool, nullptr);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(first_difference(extract_point_case(s, 0, center, pool), want),
            "");
}

// A sweep reused across positions and types (as extract_device_task uses
// it) appends exactly what fresh per-position calls return, and tallies
// the rows into and out of its point-local filter.
TEST(PointSweep, ReusedSweepMatchesFreshCallsAndTallies) {
  const auto s = reference_scenario(5, 2, 1.0);
  const auto all = all_devices(s);
  PointSweep sweep(s);
  std::vector<Candidate> appended, fresh;
  for (const Vec2 pos : reference_positions(s, 5)) {
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      sweep.run(q, pos, all, appended);
      for (auto& c : extract_point_case(s, q, pos, all)) {
        fresh.push_back(std::move(c));
      }
    }
  }
  EXPECT_EQ(first_difference(appended, fresh), "");
  EXPECT_EQ(sweep.rows_kept(), appended.size());
  EXPECT_GT(sweep.rows_kept(), 0u);
  EXPECT_GE(sweep.orientations(), sweep.rows_kept());
}

TEST(OrientableCovers, FiltersByDistanceAndReceiver) {
  auto cfg = test::simple_config();
  cfg.device_types = {{kPi / 2.0}};
  cfg.devices = {
      test::device_at(10, 10, 0.0),   // faces east → charger east covers it
      test::device_at(10, 14, 0.0),   // charger at (13,10) is ~SE of it
      test::device_at(18, 10, kPi),   // too far from (13,10)? d=5 exactly
  };
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cov = orientable_covers(s, 0, {13.0, 10.0}, pool);
  // Device 0: east of it, in its sector, d=3 → coverable.
  EXPECT_TRUE(std::find(cov.begin(), cov.end(), 0u) != cov.end());
  // Device 1 at (10,14): bearing from device to charger ≈ -53° off east;
  // its receiving half-angle is 45° → not coverable.
  EXPECT_TRUE(std::find(cov.begin(), cov.end(), 1u) == cov.end());
  // Device 2 at (18,10) faces west, charger at d=5 (boundary) → coverable.
  EXPECT_TRUE(std::find(cov.begin(), cov.end(), 2u) != cov.end());
}

TEST(PointCase, InfeasiblePositionYieldsNothing) {
  const auto s = test::blocked_scenario();
  const auto pool = all_devices(s);
  // Inside the obstacle.
  EXPECT_TRUE(extract_point_case(s, 0, {11.5, 10.0}, pool).empty());
  // Outside the region.
  EXPECT_TRUE(extract_point_case(s, 0, {50.0, 50.0}, pool).empty());
}

TEST(PointCase, SingleDeviceSingleCandidate) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cands = extract_point_case(s, 0, {13.0, 10.0}, pool);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].covered, (std::vector<std::size_t>{0}));
  EXPECT_GT(cands[0].powers[0], 0.0);
  // The strategy actually covers the device under the exact model.
  EXPECT_TRUE(s.covers(cands[0].strategy, 0));
}

TEST(PointCase, ToyRotationalSweep) {
  // Six devices arranged around the origin point, charger angle π/2:
  // the sweep should find maximal groups, none dominated.
  auto cfg = test::simple_config();
  cfg.region.lo = {-10, -10};
  cfg.region.hi = {10, 10};
  const double r = 3.0;
  for (int k = 0; k < 6; ++k) {
    const double a = kTwoPi * k / 6.0;
    cfg.devices.push_back(
        test::device_at(r * std::cos(a), r * std::sin(a)));
  }
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cands = extract_point_case(s, 0, {0.0, 0.0}, pool);
  ASSERT_FALSE(cands.empty());
  // π/2 sector over devices spaced 60° apart covers at most 2 consecutive.
  for (const auto& c : cands) {
    EXPECT_LE(c.covered.size(), 2u);
    EXPECT_GE(c.covered.size(), 1u);
    for (std::size_t idx = 0; idx < c.covered.size(); ++idx) {
      EXPECT_TRUE(s.covers(c.strategy, c.covered[idx]));
      EXPECT_NEAR(c.powers[idx], s.approx_power(c.strategy, c.covered[idx]),
                  1e-12);
    }
  }
  // All six devices appear in some candidate.
  std::vector<bool> seen(6, false);
  for (const auto& c : cands)
    for (std::size_t j : c.covered) seen[j] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(PointCase, FullCircleChargerSingleOrientation) {
  auto cfg = test::simple_config();
  cfg.charger_types[0].angle = kTwoPi;
  cfg.devices = {test::device_at(10, 13), test::device_at(13, 10),
                 test::device_at(7, 10)};
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cands = extract_point_case(s, 0, {10.0, 10.0}, pool);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].covered.size(), 3u);
}

// Property: on random scenarios and random feasible points, every candidate
// is sound (covers what it claims with the claimed approx power), none is
// dominated by a sibling, and the union of maximal sets covers exactly the
// orientable-coverable devices.
class PointCasePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PointCasePropertyTest, SoundMaximalAndComplete) {
  const auto s = test::small_paper_scenario(
      static_cast<std::uint64_t>(GetParam()) + 900, 2, 1);
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 9);
  const auto pool = all_devices(s);
  int tested = 0;
  for (int trial = 0; trial < 200 && tested < 40; ++trial) {
    const Vec2 pos{rng.uniform(0, 40), rng.uniform(0, 40)};
    const std::size_t q = rng.below(s.num_charger_types());
    const auto cands = extract_point_case(s, q, pos, pool);
    if (cands.empty()) continue;
    ++tested;

    std::vector<bool> covered_any(s.num_devices(), false);
    for (const auto& c : cands) {
      EXPECT_EQ(c.strategy.pos, pos);
      EXPECT_EQ(c.strategy.type, q);
      for (std::size_t k = 0; k < c.covered.size(); ++k) {
        EXPECT_GT(c.powers[k], 0.0);
        EXPECT_NEAR(c.powers[k], s.approx_power(c.strategy, c.covered[k]),
                    1e-12);
        covered_any[c.covered[k]] = true;
      }
      for (const auto& other : cands) {
        if (&other == &c) continue;
        EXPECT_FALSE(dominated_by(c, other) && !dominated_by(other, c));
      }
    }
    // Completeness: every orientable-coverable device shows up somewhere.
    for (std::size_t j : orientable_covers(s, q, pos, pool)) {
      EXPECT_TRUE(covered_any[j]) << "device " << j << " missing at " << pos;
    }
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(Random, PointCasePropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace hipo::pdcs
