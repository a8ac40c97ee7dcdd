#include "src/pdcs/point_case.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <string>

#include "src/geometry/angles.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/rng.hpp"
#include "tests/extract_reference.hpp"
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

using ref::first_difference;

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

// Without it gtest prints the raw object bytes, padding included, into the
// discovered test names, which then change from build to build.
void PrintTo(const ReferenceCase& rc, std::ostream* os) {
  *os << "{obstacles " << rc.obstacles << ", charge x" << rc.charge_angle_scale
      << ", recv x" << rc.recv_angle_scale << "}";
}

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
// the rows into and out of its point-local filter and its gate.
TEST(PointSweep, ReusedSweepMatchesFreshCallsAndTallies) {
  const auto s = reference_scenario(5, 2, 1.0);
  const auto all = all_devices(s);
  // Pool entry k carries id k, so the arena's ids index `all`.
  const std::vector<std::uint32_t> ids(all.begin(), all.end());
  PointSweep sweep(s);
  sweep.bind(all);
  SweepArena arena;
  std::vector<Candidate> fresh;
  std::uint64_t pairs = 0;
  for (const Vec2 pos : reference_positions(s, 5)) {
    // run() sweeps only feasible positions, as a task's are.
    if (!s.position_feasible(pos)) continue;
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      pairs += ids.size();
      sweep.run(q, pos, ids, arena);
      for (auto& c : extract_point_case(s, q, pos, all)) {
        fresh.push_back(std::move(c));
      }
    }
  }
  std::vector<Candidate> appended;
  for (std::size_t r = 0; r < arena.size(); ++r) {
    appended.push_back(arena.candidate(r, all));
  }
  EXPECT_EQ(first_difference(appended, fresh), "");
  EXPECT_EQ(sweep.rows_kept(), appended.size());
  EXPECT_GT(sweep.rows_kept(), 0u);
  EXPECT_GE(sweep.orientations(), sweep.rows_kept());
  EXPECT_EQ(sweep.gate_pairs(), pairs);
  EXPECT_GT(sweep.gate_fast_decisions(), 0u);
  EXPECT_LE(sweep.gate_fast_decisions() + sweep.gate_exact_checks(), pairs);
}

// The exact gate on one pair, line of sight aside: whether it rejects the
// pair (range, coincidence or receiver sector), and whether the receiver
// sector test alone passes.
struct ExactGate {
  bool rejects;
  bool receiver_passes;
};

ExactGate exact_gate(const model::Scenario& s, std::size_t q, Vec2 pos,
                     std::size_t j) {
  const auto& ct = s.charger_type(q);
  const auto& dev = s.device(j);
  const Vec2 so = dev.pos - pos;
  const double d = so.norm();
  const double recv_angle = s.device_type(dev.type).angle;
  bool receiver = true;
  if (d > geom::kEps && recv_angle < kTwoPi) {
    const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
    receiver = !(geom::angle_distance((-so).angle(), dev.orientation) >
                 recv_angle / 2.0 + ang_eps);
  }
  const bool in_range = !(d < ct.d_min - geom::kCoverEps ||
                          d > ct.d_max + geom::kCoverEps) &&
                        d > geom::kEps;
  return {!in_range || !receiver, receiver};
}

// The gate's prefilter may only decide what the exact gate decides: a
// kReject pair is rejected by the exact gate, and a kPass pair passes the
// exact receiver test. Chargers sit at half-angle h + Δ off each device's
// axis, with Δ at ±k·ulp, inside the δ band and around δ ± τ, at distances
// around the kCoverEps/(δ − ε) cutoff, around d_min − kCoverEps − 1e-9 and
// near zero, for receivers with h + δ ≥ π, full circles and orientations
// past the prefilter's range.
TEST(PointSweep, PrefilterDecisionsMatchExactGate) {
  using Verdict = PointSweep::Verdict;
  constexpr double kDelta = PointSweep::kDelta;
  auto cfg = test::simple_config();
  cfg.region.lo = {-10.0, -10.0};
  cfg.region.hi = {10.0, 10.0};
  cfg.charger_types = {{kPi / 2.0, 1.0, 5.0}, {kPi, 0.0, 5.0}};
  const double below_full = std::nextafter(kTwoPi, 0.0);
  cfg.device_types = {{kPi / 3.0},          {kPi / 2.0},
                      {1e-6},               {kTwoPi - 2.0 * kDelta},
                      {kTwoPi - kDelta},    {below_full},
                      {kTwoPi}};
  cfg.pair_params.assign(
      cfg.charger_types.size() * cfg.device_types.size(), {100.0, 40.0});
  cfg.charger_counts = {1, 1};
  for (std::size_t t = 0; t < cfg.device_types.size(); ++t) {
    for (const double o : {0.7, -2.5, 5.9, 40.0, 100.0}) {
      cfg.devices.push_back(test::device_at(0.0, 0.0, o, t));
    }
  }
  const model::Scenario s(std::move(cfg));
  const auto all = all_devices(s);
  PointSweep sweep(s);
  sweep.bind(all);

  const double cut = PointSweep::kExactBelow;
  std::vector<double> radii = {0.0,  1e-300, 1e-12, geom::kEps, 0.05,
                               0.2,  3.0,    5.0,   5.0 + geom::kCoverEps};
  for (const double r : {cut, 1.0 - geom::kCoverEps - 1e-9,
                         1.0 - geom::kCoverEps}) {
    double lo = r, hi = r;
    for (int k = 0; k < 3; ++k) {
      radii.push_back(lo = std::nextafter(lo, 0.0));
      radii.push_back(hi = std::nextafter(hi, 10.0));
    }
    radii.push_back(r);
    radii.push_back(r * (1.0 - 1e-12));
    radii.push_back(r * (1.0 + 1e-12));
  }
  std::vector<double> offsets = {-0.1,         -2.0 * kDelta, -kDelta / 2.0,
                                 -1e-9,        -1e-12,        0.0,
                                 1e-12,        kDelta / 2.0,  kDelta - 1e-12,
                                 kDelta,       kDelta + 1e-13, kDelta + 1e-12,
                                 kDelta + 1e-11, 2.0 * kDelta, 0.1,
                                 1.0};

  std::size_t counts[3] = {0, 0, 0};
  for (std::size_t j : all) {
    const auto& dev = s.device(j);
    const double h = s.device_type(dev.type).angle / 2.0;
    std::vector<double> angles;
    for (const double sign : {1.0, -1.0}) {
      for (const double delta : offsets) {
        angles.push_back(dev.orientation + sign * (h + delta));
      }
      double lo = h, hi = h;
      for (int k = 0; k < 4; ++k) {
        angles.push_back(dev.orientation + sign * (lo = std::nextafter(lo, 0.0)));
        angles.push_back(dev.orientation + sign * (hi = std::nextafter(hi, 9.0)));
      }
    }
    angles.push_back(dev.orientation);
    angles.push_back(dev.orientation + kPi);
    for (const double a : angles) {
      for (const double r : radii) {
        const Vec2 pos = dev.pos + Vec2{r * std::cos(a), r * std::sin(a)};
        for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
          // Every device sits at the origin, so each position probes all.
          for (std::size_t k : all) {
            const Verdict v =
                sweep.prefilter(q, pos, static_cast<std::uint32_t>(k));
            ++counts[static_cast<int>(v)];
            if (v == Verdict::kExact) continue;
            const ExactGate want = exact_gate(s, q, pos, k);
            if (v == Verdict::kReject) {
              ASSERT_TRUE(want.rejects)
                  << "device " << k << " pos " << pos << " type " << q;
            } else {
              ASSERT_TRUE(want.receiver_passes)
                  << "device " << k << " pos " << pos << " type " << q;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(counts[static_cast<int>(Verdict::kReject)], 0u);
  EXPECT_GT(counts[static_cast<int>(Verdict::kPass)], 0u);
  EXPECT_GT(counts[static_cast<int>(Verdict::kExact)], 0u);

  // Far from every boundary the prefilter decides; on a boundary, within
  // the cutoff and past kMaxOrientation it leaves the pair to the exact
  // path. Device 5 has type 1 (h = π/4) and orientation 0.7.
  const auto at = [](double a, double r) {
    return Vec2{r * std::cos(a), r * std::sin(a)};
  };
  ASSERT_EQ(s.device(5).orientation, 0.7);
  EXPECT_EQ(sweep.prefilter(0, at(0.7, 3.0), 5), Verdict::kPass);
  EXPECT_EQ(sweep.prefilter(0, at(0.7 + kPi, 3.0), 5), Verdict::kReject);
  EXPECT_EQ(sweep.prefilter(0, at(0.7 + kPi / 4.0, 3.0), 5), Verdict::kExact);
  EXPECT_EQ(sweep.prefilter(1, at(0.7 + kPi, cut / 2.0), 5), Verdict::kExact);
  EXPECT_EQ(sweep.prefilter(0, at(0.7, 0.5), 5), Verdict::kReject);  // d_min
  ASSERT_EQ(s.device(9).orientation, 100.0);
  EXPECT_EQ(sweep.prefilter(0, at(100.0 + kPi, 3.0), 9), Verdict::kExact);
  // A full-circle receiver (type 6) passes from any side.
  EXPECT_EQ(sweep.prefilter(0, at(2.0, 3.0), 30), Verdict::kPass);
}

// A task sweeps positions its own constructions made (all feasible), with
// the sweep bound to a neighbourhood superset and each pool given as local
// ids; the rows must equal extract_point_case on the query_radius pool.
TEST(PointSweep, TaskRunMatchesWrapper) {
  const auto s = reference_scenario(11, 8, 1.0);
  std::vector<Vec2> points;
  for (std::size_t j = 0; j < s.num_devices(); ++j) {
    points.push_back(s.device(j).pos);
  }
  const spatial::GridIndex grid(s.region(), std::move(points));
  const ExtractOptions eopt;
  PointSweep sweep(s);
  spatial::Neighborhood hood;
  SweepArena arena;
  std::size_t positions = 0, nonempty = 0;
  for (std::size_t i = 0; i < s.num_devices(); i += 7) {
    const Vec2 oi = s.device(i).pos;
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      const double range = s.charger_type(q).d_max + geom::kCoverEps;
      auto task = singleton_candidate_positions(s, q, i, eopt);
      for (std::size_t j : grid.query_radius(oi, 2.0 * s.charger_type(q).d_max)) {
        if (j <= i) continue;
        for (Vec2 p : pair_candidate_positions(s, q, i, j, eopt)) {
          task.push_back(p);
        }
      }
      double reach = 0.0;
      for (Vec2 p : task) reach = std::max(reach, geom::distance(p, oi));
      hood.fetch(grid, oi, reach, range);
      sweep.bind(hood.points());
      for (const Vec2 p : task) {
        ASSERT_TRUE(s.position_feasible(p));
        hood.within(p, range);
        arena.clear();
        sweep.run(q, p, hood.local(), arena);
        std::vector<Candidate> got;
        for (std::size_t r = 0; r < arena.size(); ++r) {
          got.push_back(arena.candidate(r, hood.points()));
        }
        const auto want =
            extract_point_case(s, q, p, grid.query_radius(p, range));
        ASSERT_EQ(first_difference(got, want), "") << "pos " << p;
        ++positions;
        nonempty += want.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(positions, 100u);
  EXPECT_GT(nonempty, positions / 2);
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
