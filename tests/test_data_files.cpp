// The scenario files shipped in data/ must parse, validate, solve, and
// round-trip — they are the CLI's advertised entry point.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/replan.hpp"
#include "src/core/solver.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/opt/delta.hpp"

#ifndef HIPO_DATA_DIR
#error "HIPO_DATA_DIR must be defined by the build"
#endif

namespace hipo {
namespace {

class DataFileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DataFileTest, ParsesAndValidates) {
  const std::string path = std::string(HIPO_DATA_DIR) + "/" + GetParam();
  const auto scenario = model::read_scenario_file(path);
  EXPECT_GT(scenario.num_devices(), 0u);
  EXPECT_GT(scenario.num_chargers(), 0u);
  EXPECT_GT(scenario.num_obstacles(), 0u);
}

TEST_P(DataFileTest, SolvesWithPositiveUtility) {
  const std::string path = std::string(HIPO_DATA_DIR) + "/" + GetParam();
  const auto scenario = model::read_scenario_file(path);
  const auto result = core::solve(scenario);
  scenario.validate_placement(result.placement);
  EXPECT_GT(result.utility, 0.3) << path;
}

TEST_P(DataFileTest, RoundTripsExactly) {
  const std::string path = std::string(HIPO_DATA_DIR) + "/" + GetParam();
  const auto scenario = model::read_scenario_file(path);
  std::stringstream buffer;
  model::write_scenario(buffer, scenario);
  const auto restored = model::read_scenario(buffer);
  ASSERT_EQ(restored.num_devices(), scenario.num_devices());
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    EXPECT_EQ(restored.device(j).pos, scenario.device(j).pos);
    EXPECT_EQ(restored.device(j).weight, scenario.device(j).weight);
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, DataFileTest,
                         ::testing::Values("office.hipo", "courtyard.hipo"));

// The zero-utility gauges describe one solve: replaying the courtyard
// delta script (a cold solve plus one warm re-solve per op) must not add
// them up past the scenario's device count.
TEST(CourtyardDeltas, ZeroUtilityGaugesDescribeOneSolve) {
  const std::string dir = HIPO_DATA_DIR;
  const auto scenario = model::read_scenario_file(dir + "/courtyard.hipo");
  const auto ops = opt::read_delta_script_file(dir + "/courtyard_deltas.jsonl");
  ASSERT_FALSE(ops.empty());
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  core::DeltaSession session(scenario.to_config(),
                             core::replan_options(core::SolveOptions{}));
  for (const auto& op : ops) (void)session.apply(op);
  const double uncoverable = obs::gauge("greedy.devices_uncoverable").value();
  const double unserved = obs::gauge("greedy.devices_unserved").value();
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
  EXPECT_EQ(session.scenario().num_devices(), 8u);
  EXPECT_LE(uncoverable + unserved, 8.0);
  EXPECT_GE(uncoverable, 0.0);
  EXPECT_GE(unserved, 0.0);
}

}  // namespace
}  // namespace hipo
