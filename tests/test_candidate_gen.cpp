#include "src/pdcs/candidate_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <ostream>
#include <set>
#include <string>

#include "src/geometry/angles.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/obs/metrics.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/rng.hpp"
#include "tests/extract_reference.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::pdcs {
namespace {

using geom::Vec2;

TEST(RingRadii, StartsAtDminEndsAtDmax) {
  const auto s = test::simple_scenario();
  const auto radii = ring_radii(s, 0, 0);
  ASSERT_GE(radii.size(), 2u);
  EXPECT_DOUBLE_EQ(radii.front(), 1.0);
  EXPECT_DOUBLE_EQ(radii.back(), 5.0);
  EXPECT_TRUE(std::is_sorted(radii.begin(), radii.end()));
}

TEST(PairPositions, AllFeasibleAndInRange) {
  const auto s = test::simple_scenario();
  const ExtractOptions opt;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  EXPECT_FALSE(positions.empty());
  const double d_max = s.charger_type(0).d_max;
  for (const Vec2& p : positions) {
    EXPECT_TRUE(s.position_feasible(p));
    const double d0 = geom::distance(p, s.device(0).pos);
    const double d1 = geom::distance(p, s.device(1).pos);
    EXPECT_TRUE(d0 <= d_max + 1e-6 || d1 <= d_max + 1e-6);
  }
}

TEST(PairPositions, Deduplicated) {
  const auto s = test::simple_scenario();
  const ExtractOptions opt;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  std::set<std::pair<long long, long long>> seen;
  for (const Vec2& p : positions) {
    const auto key = std::make_pair(llround(p.x * 1e6), llround(p.y * 1e6));
    EXPECT_TRUE(seen.insert(key).second) << "duplicate at " << p;
  }
}

TEST(PairPositions, AblationFlagsReduceCount) {
  const auto s = test::simple_scenario();
  ExtractOptions all;
  ExtractOptions none;
  none.use_pair_line = false;
  none.use_pair_arcs = false;
  none.use_ring_ring = false;
  none.use_obstacle_ring = false;
  const auto with_all = pair_candidate_positions(s, 0, 0, 1, all);
  const auto with_none = pair_candidate_positions(s, 0, 0, 1, none);
  EXPECT_GT(with_all.size(), with_none.size());
  EXPECT_TRUE(with_none.empty());
}

TEST(PairPositions, RingRingPointsLieOnCircles) {
  const auto s = test::simple_scenario();
  ExtractOptions opt;
  opt.use_pair_line = false;
  opt.use_pair_arcs = false;
  opt.use_obstacle_ring = false;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  const auto ri = ring_radii(s, 0, 0);
  const auto rj = ring_radii(s, 0, 1);
  for (const Vec2& p : positions) {
    const double d0 = geom::distance(p, s.device(0).pos);
    const double d1 = geom::distance(p, s.device(1).pos);
    const auto on_some = [](double d, const std::vector<double>& radii) {
      for (double r : radii)
        if (std::abs(d - r) < 1e-6) return true;
      return false;
    };
    EXPECT_TRUE(on_some(d0, ri));
    EXPECT_TRUE(on_some(d1, rj));
  }
}

TEST(SingletonPositions, OnOwnRings) {
  const auto s = test::simple_scenario();
  const auto positions = singleton_candidate_positions(s, 0, 0, pdcs::ExtractOptions{});
  EXPECT_FALSE(positions.empty());
  const auto radii = ring_radii(s, 0, 0);
  for (const Vec2& p : positions) {
    EXPECT_TRUE(s.position_feasible(p));
    const double d = geom::distance(p, s.device(0).pos);
    bool on_ring = false;
    for (double r : radii)
      if (std::abs(d - r) < 1e-6) on_ring = true;
    EXPECT_TRUE(on_ring);
  }
}

TEST(ObstacleRingPositions, GeneratedNearObstacle) {
  const auto s = test::blocked_scenario();
  ExtractOptions opt;
  opt.use_pair_line = false;
  opt.use_pair_arcs = false;
  opt.use_ring_ring = false;
  opt.use_singleton = false;
  // Single device scenario: pair generation needs two devices, so probe the
  // singleton path indirectly via obstacle-ring on a two-device variant.
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(14, 10)};
  cfg.obstacles = {geom::make_rect({11.0, 9.5}, {12.0, 10.5})};
  const model::Scenario s2(std::move(cfg));
  const auto positions = pair_candidate_positions(s2, 0, 0, 1, opt);
  EXPECT_FALSE(positions.empty());
}

TEST(ExtractDeviceTask, SoundCandidates) {
  const auto s = test::simple_scenario();
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < s.num_devices(); ++j)
    pts.push_back(s.device(j).pos);
  const spatial::GridIndex index(s.region(), pts);
  const auto cands = extract_device_task(s, index, 0, ExtractOptions{});
  EXPECT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_TRUE(s.position_feasible(c.strategy.pos));
    for (std::size_t k = 0; k < c.covered.size(); ++k) {
      EXPECT_NEAR(c.powers[k], s.approx_power(c.strategy, c.covered[k]),
                  1e-12);
      EXPECT_GT(c.powers[k], 0.0);
    }
    EXPECT_TRUE(std::is_sorted(c.covered.begin(), c.covered.end()));
  }
}

TEST(ExtractDeviceTask, RespectsIndexOrdering) {
  // Task for the highest-index device only pairs with larger indices (none),
  // so it should contain only singleton-derived candidates — still nonempty.
  const auto s = test::simple_scenario();
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < s.num_devices(); ++j)
    pts.push_back(s.device(j).pos);
  const spatial::GridIndex index(s.region(), pts);
  const auto last = extract_device_task(s, index, s.num_devices() - 1,
                                        ExtractOptions{});
  EXPECT_FALSE(last.empty());
}

TEST(CandidateGen, DminZeroColocatedChargerSemantics) {
  // d_min = 0: the ladder starts at the apex, but a charger *exactly* on
  // the device is defined as not covering it (coincident positions have
  // undefined sector angles — coverage_geometry's d <= kEps guard). A
  // charger a hair away is covered and gets the innermost ring's power.
  auto cfg = test::simple_config();
  cfg.charger_types[0].d_min = 0.0;
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  const auto radii = ring_radii(s, 0, 0);
  ASSERT_FALSE(radii.empty());
  EXPECT_DOUBLE_EQ(radii.front(), 0.0);
  const model::Strategy colocated{{10.0, 10.0}, 0.0, 0};
  EXPECT_FALSE(s.covers(colocated, 0));
  EXPECT_EQ(s.approx_power(colocated, 0), 0.0);
  EXPECT_EQ(s.exact_power(colocated, 0), 0.0);
  const model::Strategy nearby{{10.0 - 1e-3, 10.0}, 0.0, 0};
  EXPECT_TRUE(s.covers(nearby, 0));
  EXPECT_GT(s.approx_power(nearby, 0), 0.0);
  EXPECT_GE(s.exact_power(nearby, 0), s.approx_power(nearby, 0));
}

TEST(CandidateGen, FullAngleChargerExtraction) {
  // α_q = 2π (omnidirectional charger): the rotational sweep degenerates —
  // every orientation covers the same set — and extraction must still
  // produce candidates that cover the devices.
  auto cfg = test::simple_config();
  cfg.charger_types[0].angle = geom::kTwoPi;
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10)};
  const model::Scenario s(std::move(cfg));
  const auto extraction = extract_all(s);
  ASSERT_FALSE(extraction.candidates.empty());
  bool covers_any = false;
  for (const auto& c : extraction.candidates) {
    EXPECT_TRUE(s.position_feasible(c.strategy.pos));
    covers_any = covers_any || !c.covered.empty();
  }
  EXPECT_TRUE(covers_any);
}

TEST(CandidateGen, ChargerOnObstacleVertexInfeasiblePositionsFiltered) {
  // Obstacle with a vertex between the devices: generated positions must
  // all be feasible (outside obstacle interiors) even though several
  // construction families intersect the obstacle boundary itself.
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(8, 10), test::device_at(14, 10)};
  cfg.obstacles = {geom::make_rect({10.5, 9.0}, {11.5, 11.0})};
  const model::Scenario s(std::move(cfg));
  const ExtractOptions opt;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  for (const geom::Vec2& p : positions) {
    EXPECT_TRUE(s.position_feasible(p)) << p;
  }
}

// --- Identity with the per-position-query extraction -------------------------
// extract_device_task scans each position's pool out of one neighborhood per
// (task, type), sweeps into a flat arena and filters it with the flat
// dominance core; tests/extract_reference.hpp keeps the task as it was (one
// query_radius per position, heap Candidates, pointer-sort filter). Every
// task must match it byte for byte.

spatial::GridIndex device_index(const model::Scenario& s) {
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < s.num_devices(); ++j) pts.push_back(s.device(j).pos);
  return spatial::GridIndex(s.region(), std::move(pts));
}

/// Compares every task of `s`; returns how many reference tasks are
/// non-empty.
std::size_t expect_tasks_identical(const model::Scenario& s,
                                   const ExtractOptions& opt) {
  const auto index = device_index(s);
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < s.num_devices(); ++i) {
    const auto want = ref::extract_device_task(s, index, i, opt);
    EXPECT_EQ(ref::first_difference(extract_device_task(s, index, i, opt),
                                    want),
              "")
        << "task " << i;
    if (!want.empty()) ++nonempty;
  }
  return nonempty;
}

/// Positions of every singleton and every (i, j > i) neighbor pair, bitwise
/// against the reference constructions.
void expect_positions_identical(const model::Scenario& s,
                                const ExtractOptions& opt) {
  const auto index = device_index(s);
  const auto bits_equal = [](const std::vector<Vec2>& a,
                             const std::vector<Vec2>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (std::bit_cast<std::uint64_t>(a[k].x) !=
              std::bit_cast<std::uint64_t>(b[k].x) ||
          std::bit_cast<std::uint64_t>(a[k].y) !=
              std::bit_cast<std::uint64_t>(b[k].y)) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
    for (std::size_t i = 0; i < s.num_devices(); ++i) {
      EXPECT_TRUE(bits_equal(singleton_candidate_positions(s, q, i, opt),
                             ref::singleton_candidate_positions(s, q, i, opt)))
          << "singleton " << i << " type " << q;
      for (std::size_t j :
           index.query_radius(s.device(i).pos, 2.0 * s.charger_type(q).d_max)) {
        if (j <= i) continue;
        EXPECT_TRUE(bits_equal(pair_candidate_positions(s, q, i, j, opt),
                               ref::pair_candidate_positions(s, q, i, j, opt)))
            << "pair " << i << "," << j << " type " << q;
      }
    }
  }
}

struct TaskCase {
  std::string name;
  int obstacles = 2;
  double charge_angle_scale = 1.0;
  double recv_angle_scale = 1.0;
  int region_scale = 1;
  int device_multiplier = 3;
  ExtractOptions opt;
};

void PrintTo(const TaskCase& tc, std::ostream* os) { *os << tc.name; }

model::Scenario task_scenario(const TaskCase& tc, std::uint64_t seed) {
  model::GenOptions gen;
  gen.device_multiplier = tc.device_multiplier;
  gen.charger_multiplier = 1;
  gen.num_obstacles = tc.obstacles;
  gen.charge_angle_scale = tc.charge_angle_scale;
  gen.recv_angle_scale = tc.recv_angle_scale;
  gen.region_scale = tc.region_scale;
  Rng rng(seed);
  return model::make_paper_scenario(gen, rng);
}

class TaskIdentityTest : public ::testing::TestWithParam<TaskCase> {};

TEST_P(TaskIdentityTest, ByteIdenticalToPerPositionQueries) {
  const TaskCase& tc = GetParam();
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto s = task_scenario(tc, seed * 53 + 7);
    const std::size_t nonempty = expect_tasks_identical(s, tc.opt);
    EXPECT_GT(nonempty, s.num_devices() / 2) << "seed " << seed;
  }
}

std::vector<TaskCase> task_cases() {
  std::vector<TaskCase> cases;
  const auto add = [&](std::string name, auto edit) {
    TaskCase tc;
    tc.name = std::move(name);
    edit(tc);
    cases.push_back(tc);
  };
  add("obs0", [](TaskCase& tc) { tc.obstacles = 0; });
  add("obs2", [](TaskCase&) {});
  add("obs8", [](TaskCase& tc) { tc.obstacles = 8; });
  // Twice the edge at the same device density.
  add("region2", [](TaskCase& tc) {
    tc.region_scale = 2;
    tc.device_multiplier = 12;
  });
  add("charge_half", [](TaskCase& tc) { tc.charge_angle_scale = 0.5; });
  // ×12 clamps every charger to a full circle.
  add("charge_full", [](TaskCase& tc) { tc.charge_angle_scale = 12.0; });
  add("recv_full", [](TaskCase& tc) { tc.recv_angle_scale = 12.0; });
  add("no_singleton", [](TaskCase& tc) { tc.opt.use_singleton = false; });
  add("no_arc_samples", [](TaskCase& tc) { tc.opt.arc_samples = 0; });
  add("no_obstacle_ring", [](TaskCase& tc) {
    tc.obstacles = 8;
    tc.opt.use_obstacle_ring = false;
  });
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, TaskIdentityTest, ::testing::ValuesIn(task_cases()),
    [](const ::testing::TestParamInfo<TaskCase>& info) {
      return info.param.name;
    });

TEST(TaskIdentity, PositionsMatchReferenceConstructions) {
  TaskCase tc;
  tc.obstacles = 8;
  expect_positions_identical(task_scenario(tc, 11), tc.opt);
  tc.opt.arc_samples = 0;
  tc.opt.use_singleton = false;
  expect_positions_identical(task_scenario(tc, 12), tc.opt);
}

// The task sweeps every position the reference constructions generate: a
// dedup set that leaked across pairs would drop positions whose rows the
// per-task filter usually hides as exact duplicates.
TEST(TaskIdentity, SweepsEveryReferencePosition) {
  TaskCase tc;
  tc.obstacles = 8;
  const auto s = task_scenario(tc, 13);
  const auto index = device_index(s);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& swept = obs::counter("extract.positions");
  for (std::size_t i = 0; i < s.num_devices(); ++i) {
    std::uint64_t want = 0;
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      want += ref::singleton_candidate_positions(s, q, i, tc.opt).size();
      for (std::size_t j :
           index.query_radius(s.device(i).pos, 2.0 * s.charger_type(q).d_max)) {
        if (j > i) {
          want += ref::pair_candidate_positions(s, q, i, j, tc.opt).size();
        }
      }
    }
    const std::uint64_t before = swept.value();
    extract_device_task(s, index, i, tc.opt);
    EXPECT_EQ(swept.value() - before, want) << "task " << i;
  }
  obs::set_metrics_enabled(was_enabled);
}

// Devices exactly 2·d_max apart (the Algorithm 4 neighbor radius, along an
// axis and along a 3-4-5 diagonal) and exactly d_max + kCoverEps apart (the
// pool radius): the pair set and every pool sit on their query boundaries.
TEST(TaskIdentity, DevicesOnQueryBoundaries) {
  auto cfg = test::simple_config();
  const double d_max = cfg.charger_types[0].d_max;
  cfg.charger_types.push_back({geom::kPi / 3.0, 0.5, 3.0});
  cfg.pair_params.push_back({100.0, 40.0});
  cfg.charger_counts.push_back(2);
  cfg.device_types.push_back({geom::kPi / 2.0});
  cfg.pair_params.push_back({100.0, 40.0});
  cfg.pair_params.push_back({100.0, 40.0});
  cfg.devices = {
      test::device_at(2.0, 2.0),
      test::device_at(2.0 + 2.0 * d_max, 2.0),
      test::device_at(2.0 + 0.6 * 2.0 * d_max, 2.0 + 0.8 * 2.0 * d_max),
      test::device_at(2.0, 2.0 + d_max + geom::kCoverEps, 0.0, 1),
      test::device_at(2.0 + 2.0 * d_max, 2.0 + 2.0 * 3.0, geom::kPi, 1),
      test::device_at(15.0, 9.0 + d_max + geom::kCoverEps),
      test::device_at(15.0, 9.0, 1.0, 1),
  };
  cfg.obstacles = {geom::make_rect({6.0, 5.0}, {7.0, 6.0})};
  const model::Scenario s(std::move(cfg));
  EXPECT_GT(expect_tasks_identical(s, ExtractOptions{}), 0u);
  expect_positions_identical(s, ExtractOptions{});
}

}  // namespace
}  // namespace hipo::pdcs
