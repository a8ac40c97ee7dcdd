#include "src/spatial/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/geometry/vec2.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace hipo::spatial {
namespace {

using geom::BBox;
using geom::Vec2;

BBox box(double x0, double y0, double x1, double y1) {
  BBox b;
  b.lo = {x0, y0};
  b.hi = {x1, y1};
  return b;
}

TEST(GridIndex, EmptyPoints) {
  const GridIndex index(box(0, 0, 10, 10), {});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query_radius({5, 5}, 100.0).empty());
}

TEST(GridIndex, SinglePointHit) {
  const GridIndex index(box(0, 0, 10, 10), {{3, 3}});
  const auto hits = index.query_radius({3.5, 3.0}, 1.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_TRUE(index.query_radius({9, 9}, 1.0).empty());
}

TEST(GridIndex, RadiusBoundaryInclusive) {
  const GridIndex index(box(0, 0, 10, 10), {{0, 0}, {4, 0}});
  const auto hits = index.query_radius({0, 0}, 4.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(GridIndex, PointOutsideBoundsStillIndexed) {
  const GridIndex index(box(0, 0, 10, 10), {{-2, -2}});
  const auto hits = index.query_radius({-1, -1}, 3.0);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(GridIndex, RejectsDegenerateBox) {
  EXPECT_THROW(GridIndex(box(0, 0, 0, 10), {}), hipo::ConfigError);
  EXPECT_THROW(GridIndex(box(0, 0, 10, 10), {}, 0.0), hipo::ConfigError);
}

TEST(GridIndex, NegativeRadiusThrows) {
  const GridIndex index(box(0, 0, 10, 10), {{1, 1}});
  EXPECT_THROW(index.query_radius({0, 0}, -1.0), hipo::ConfigError);
}

TEST(GridIndex, QueryBox) {
  const GridIndex index(box(0, 0, 10, 10), {{1, 1}, {5, 5}, {9, 9}});
  const auto hits = index.query_box(box(0, 0, 6, 6));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
}

TEST(GridIndex, ResultsSorted) {
  const GridIndex index(box(0, 0, 10, 10),
                        {{5, 5}, {5.1, 5.0}, {4.9, 5.0}, {5.0, 5.1}});
  const auto hits = index.query_radius({5, 5}, 1.0);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
  EXPECT_EQ(hits.size(), 4u);
}

// Property: grid queries agree with a brute-force scan for many random
// point sets, query centers, and radii, across grid densities.
class GridOracleTest : public ::testing::TestWithParam<double> {};

TEST_P(GridOracleTest, MatchesBruteForce) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam() * 100) + 3);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0, 40), rng.uniform(0, 40)});
  }
  const GridIndex index(box(0, 0, 40, 40), points, GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 c{rng.uniform(-5, 45), rng.uniform(-5, 45)};
    const double r = rng.uniform(0.0, 15.0);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (geom::distance(points[i], c) <= r) expected.push_back(i);
    }
    EXPECT_EQ(index.query_radius(c, r), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, GridOracleTest,
                         ::testing::Values(0.5, 1.0, 2.0, 8.0, 64.0));


/// The last within()'s points as indices: local() mapped through points().
std::vector<std::size_t> pool_of(const Neighborhood& hood) {
  std::vector<std::size_t> pool;
  for (const std::uint32_t k : hood.local()) pool.push_back(hood.points()[k]);
  return pool;
}

// Property: a Neighborhood fetched around a center (with reach = the
// farthest query position, as extract_device_task computes it) returns, for
// every such position, exactly query_radius's pool in the same order, and
// local ids that index the fetched points. Positions include points exactly
// at the pool radius from a point (on an axis and on a diagonal) and the
// farthest position itself; coordinates are also shifted far from the
// origin so rounding in the distances is exercised.
class NeighborhoodOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(NeighborhoodOracleTest, ScanEqualsQueryRadius) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const double shift = GetParam() % 2 == 0 ? 0.0 : 1048576.0 + 0.1;
  std::vector<Vec2> points;
  for (int i = 0; i < 150; ++i) {
    points.push_back({shift + rng.uniform(-2, 42), shift + rng.uniform(-2, 42)});
  }
  const GridIndex index(box(shift, shift, shift + 40, shift + 40), points,
                        2.0);
  const double r = rng.uniform(1.0, 8.0) + geom::kCoverEps;
  Neighborhood hood;
  std::size_t compared = 0, hits = 0;
  for (int round = 0; round < 20; ++round) {
    const Vec2 center = points[rng.below(points.size())];
    std::vector<Vec2> positions;
    const double spread = rng.uniform(0.0, 3.0 * r);
    for (int k = 0; k < 30; ++k) {
      const double a = rng.angle();
      const double d = rng.uniform(0.0, spread);
      positions.push_back(center + Vec2{d * std::cos(a), d * std::sin(a)});
    }
    for (int k = 0; k < 10; ++k) {
      const Vec2 o = points[rng.below(points.size())];
      if (geom::distance(o, center) > spread) continue;
      positions.push_back(o + Vec2{r, 0.0});
      positions.push_back(o + Vec2{0.0, -r});
      positions.push_back(o + Vec2{0.6 * r, 0.8 * r});
    }
    double reach = 0.0;
    for (const Vec2 p : positions) reach = std::max(reach, geom::distance(p, center));
    hood.fetch(index, center, reach, r);
    for (const Vec2 p : positions) {
      hood.within(p, r);
      const auto want = index.query_radius(p, r);
      const std::vector<std::size_t> got = pool_of(hood);
      ASSERT_EQ(got, want) << "position " << p << " center " << center;
      ASSERT_TRUE(std::is_sorted(hood.local().begin(), hood.local().end()));
      ++compared;
      hits += got.size();
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Random, NeighborhoodOracleTest,
                         ::testing::Range(0, 8));


// A point on the far side of the farthest position, as far out as the
// pool test accepts, lies exactly reach + r from the center in real
// arithmetic; the fetch's rounding pad must keep it in the superset.
TEST(Neighborhood, KeepsCollinearBoundaryPoints) {
  hipo::Rng rng(2024);
  const double r = 5.0 + geom::kCoverEps;
  std::size_t checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Vec2 center{rng.uniform(10, 30), rng.uniform(10, 30)};
    const double a = rng.angle();
    const Vec2 u{std::cos(a), std::sin(a)};
    const Vec2 p = center + u * rng.uniform(0.0, 10.0);
    double d = r;
    Vec2 far = p + u * d;
    while (geom::distance2(far, p) > r * r) {
      d = std::nextafter(d, 0.0);
      far = p + u * d;
    }
    const GridIndex index(box(0, 0, 40, 40), {center, far});
    Neighborhood hood;
    hood.fetch(index, center, geom::distance(p, center), r);
    hood.within(p, r);
    ASSERT_EQ(pool_of(hood), index.query_radius(p, r)) << "trial " << trial;
    ++checked;
  }
  EXPECT_EQ(checked, 400u);
}

}  // namespace
}  // namespace hipo::spatial
