#include "src/geometry/angles.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/rng.hpp"

namespace hipo::geom {
namespace {

TEST(NormAngle, CanonicalRange) {
  EXPECT_NEAR(norm_angle(0.0), 0.0, 1e-15);
  EXPECT_NEAR(norm_angle(kTwoPi), 0.0, 1e-15);
  EXPECT_NEAR(norm_angle(-kPi / 2.0), 1.5 * kPi, 1e-12);
  EXPECT_NEAR(norm_angle(5.0 * kTwoPi + 1.0), 1.0, 1e-12);
}

TEST(NormAngle, AlwaysInRange) {
  hipo::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double a = norm_angle(rng.uniform(-100.0, 100.0));
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, kTwoPi);
  }
}

TEST(CcwDelta, Basic) {
  EXPECT_NEAR(ccw_delta(0.0, kPi / 2.0), kPi / 2.0, 1e-12);
  EXPECT_NEAR(ccw_delta(kPi / 2.0, 0.0), 1.5 * kPi, 1e-12);
  EXPECT_NEAR(ccw_delta(1.0, 1.0), 0.0, 1e-12);
}

TEST(AngleDistance, SymmetricAndBounded) {
  hipo::Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double a = rng.uniform(-10.0, 10.0);
    const double b = rng.uniform(-10.0, 10.0);
    const double d = angle_distance(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, kPi + 1e-12);
    EXPECT_NEAR(d, angle_distance(b, a), 1e-12);
  }
}

TEST(AngleDistance, WrapAround) {
  EXPECT_NEAR(angle_distance(0.1, kTwoPi - 0.1), 0.2, 1e-12);
}

// fold_angle must give norm_angle's bits on (−4π, 4π), except the sign of
// the zero at −2π (and −4π): fmod keeps the dividend's sign there.
TEST(FoldAngle, SameBitsAsNormAngle) {
  std::vector<double> args = {0.0,          -0.0,          kPi,
                              -kPi,         kTwoPi,        -kTwoPi,
                              3.0 * kPi,    -3.0 * kPi,    1e-300,
                              -1e-300,      -4.9e-324,     4.9e-324,
                              kTwoPi / 2.0, 2.0 * kTwoPi};
  for (const double base : {0.0, kPi, -kPi, kTwoPi, -kTwoPi, 3.0 * kPi,
                            -3.0 * kPi, 2.0 * kTwoPi, -2.0 * kTwoPi}) {
    double up = base, down = base;
    for (int k = 0; k < 4; ++k) {
      up = std::nextafter(up, 100.0);
      down = std::nextafter(down, -100.0);
      args.push_back(up);
      args.push_back(down);
    }
  }
  hipo::Rng rng(17);
  for (int i = 0; i < 200000; ++i) args.push_back(rng.uniform(-4.0, 4.0) * kPi);
  for (const double a : args) {
    if (!(std::abs(a) < 2.0 * kTwoPi) && a != -2.0 * kTwoPi) continue;
    const double want = norm_angle(a);
    const double got = fold_angle(a);
    if (a == -kTwoPi || a == -2.0 * kTwoPi) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
                std::bit_cast<std::uint64_t>(-0.0));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(0.0));
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "a = " << a;
  }
}

// The point sweep's two charger-sector comparisons, made on folded
// distances: θ − φ in (−2π, 2π) (θ, φ in [0, 2π)) and bearing − φ in
// [−3π, π] (bearing in [−π, π]). Every outcome must match angle_distance,
// at the boundaries φ ± (half + 1e-9) ± k·ulp, at bearings ±π, 0 and
// φ = 0, π, 2π − ulp (−π − π = −2π is the −0.0 case), and at random.
TEST(FoldedAngleDistance, ComparisonsMatchAngleDistance) {
  const double top = std::nextafter(kTwoPi, 0.0);
  std::vector<double> phis = {0.0, kPi, top, std::nextafter(kPi, 0.0),
                              kPi / 2.0, 1e-300};
  std::vector<double> halves = {kPi / 4.0, kPi / 2.0, 0.3,
                                std::nextafter(kPi, 0.0) / 2.0, 1e-6};
  hipo::Rng rng(29);
  for (int i = 0; i < 64; ++i) phis.push_back(norm_angle(rng.angle()));
  std::size_t compared = 0, inside = 0;
  const auto check = [&](double x, double phi, double half, double slack) {
    // x as a normalized θ and as a raw bearing in [−π, π].
    const double theta = fold_angle(x);
    const double bearing = std::abs(x) <= kPi      ? x
                           : theta > kPi ? theta - kTwoPi
                                         : theta;
    for (const double a : {theta, bearing}) {
      const double want = angle_distance(a, phi);
      const double got = folded_angle_distance(a, phi);
      ASSERT_EQ(got, want) << "a " << a << " phi " << phi;
      for (const double limit : {half + 1e-9, half + slack, half, 0.0}) {
        ASSERT_EQ(got > limit, want > limit) << "a " << a << " phi " << phi;
        ASSERT_EQ(got <= limit, want <= limit);
      }
      ++compared;
      inside += want <= half + 1e-9 ? 1 : 0;
    }
  };
  for (const double phi : phis) {
    for (const double half : halves) {
      const double slack = 1e-7 / rng.uniform(0.1, 10.0);
      for (const double sign : {1.0, -1.0}) {
        double offset = half + 1e-9;
        double lo = offset, hi = offset;
        for (int k = 0; k < 6; ++k) {
          check(phi + sign * lo, phi, half, slack);
          check(phi + sign * hi, phi, half, slack);
          lo = std::nextafter(lo, 0.0);
          hi = std::nextafter(hi, 10.0);
        }
      }
      for (const double b : {kPi, -kPi, 0.0, -0.0, top, half}) {
        check(b, phi, half, slack);
      }
      for (int i = 0; i < 200; ++i) check(rng.angle(), phi, half, slack);
    }
  }
  // Bearing −π against φ = π: bearing − φ is exactly −2π.
  EXPECT_EQ(folded_angle_distance(-kPi, kPi), angle_distance(-kPi, kPi));
  EXPECT_GT(compared, 100000u);
  EXPECT_GT(inside, 0u);
}

TEST(AngleInterval, ContainsInterior) {
  const AngleInterval iv(1.0, 1.0);
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(1.5));
  EXPECT_TRUE(iv.contains(2.0));
  EXPECT_FALSE(iv.contains(2.1));
  EXPECT_FALSE(iv.contains(0.9));
}

TEST(AngleInterval, WrapsPastTwoPi) {
  const auto iv = AngleInterval::from_to(kTwoPi - 0.5, 0.5);
  EXPECT_NEAR(iv.width, 1.0, 1e-12);
  EXPECT_TRUE(iv.contains(0.0));
  EXPECT_TRUE(iv.contains(kTwoPi - 0.25));
  EXPECT_TRUE(iv.contains(0.25));
  EXPECT_FALSE(iv.contains(kPi));
}

TEST(AngleInterval, FullContainsEverything) {
  const auto iv = AngleInterval::full();
  EXPECT_TRUE(iv.is_full());
  for (double a = 0.0; a < kTwoPi; a += 0.1) EXPECT_TRUE(iv.contains(a));
}

TEST(AngleInterval, MidAndEnd) {
  const AngleInterval iv(kTwoPi - 1.0, 2.0);
  EXPECT_NEAR(iv.end(), 1.0, 1e-12);
  EXPECT_NEAR(iv.mid(), 0.0, 1e-12);
}

TEST(AngleIntervalSet, UnionMergesOverlap) {
  AngleIntervalSet s;
  s.insert(AngleInterval(0.0, 1.0));
  s.insert(AngleInterval(0.5, 1.0));
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_NEAR(s.measure(), 1.5, 1e-12);
}

TEST(AngleIntervalSet, DisjointKept) {
  AngleIntervalSet s;
  s.insert(AngleInterval(0.0, 0.5));
  s.insert(AngleInterval(2.0, 0.5));
  EXPECT_EQ(s.intervals().size(), 2u);
  EXPECT_NEAR(s.measure(), 1.0, 1e-12);
}

TEST(AngleIntervalSet, WrapJoin) {
  AngleIntervalSet s;
  s.insert(AngleInterval::from_to(kTwoPi - 0.3, 0.1));
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_TRUE(s.contains(0.0));
  EXPECT_TRUE(s.contains(kTwoPi - 0.2));
  EXPECT_FALSE(s.contains(1.0));
}

TEST(AngleIntervalSet, ComplementOfEmptyIsFull) {
  AngleIntervalSet s;
  EXPECT_TRUE(s.complement().is_full());
}

TEST(AngleIntervalSet, ComplementOfFullIsEmpty) {
  AngleIntervalSet s(AngleInterval::full());
  EXPECT_TRUE(s.complement().empty());
}

TEST(AngleIntervalSet, SaturatesToFull) {
  AngleIntervalSet s;
  s.insert(AngleInterval(0.0, 4.0));
  s.insert(AngleInterval(3.0, 4.0));
  EXPECT_TRUE(s.is_full());
}

// Property: for random interval sets A and B, membership algebra holds at
// random probe angles.
class IntervalAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalAlgebraTest, DeMorganAndMembership) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()));
  AngleIntervalSet a, b;
  const int na = 1 + static_cast<int>(rng.below(4));
  const int nb = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < na; ++i)
    a.insert(AngleInterval(rng.angle(), rng.uniform(0.0, 2.5)));
  for (int i = 0; i < nb; ++i)
    b.insert(AngleInterval(rng.angle(), rng.uniform(0.0, 2.5)));

  const auto a_and_b = a.intersect(b);
  const auto a_or_b = a.unite(b);
  const auto not_a = a.complement();

  for (int probe = 0; probe < 500; ++probe) {
    const double t = rng.angle();
    const bool in_a = a.contains(t);
    const bool in_b = b.contains(t);
    // Skip probes within epsilon of any boundary (membership there is
    // legitimately ambiguous under floating point).
    bool near_boundary = false;
    for (const auto& set : {&a, &b}) {
      for (const auto& iv : set->intervals()) {
        if (angle_distance(t, iv.start) < 1e-9 ||
            angle_distance(t, iv.end()) < 1e-9)
          near_boundary = true;
      }
    }
    if (near_boundary) continue;
    EXPECT_EQ(a_and_b.contains(t), in_a && in_b) << "angle " << t;
    EXPECT_EQ(a_or_b.contains(t), in_a || in_b) << "angle " << t;
    EXPECT_EQ(not_a.contains(t), !in_a) << "angle " << t;
  }

  // Measure identities.
  EXPECT_NEAR(a.measure() + not_a.measure(), kTwoPi, 1e-9);
  EXPECT_NEAR(a_or_b.measure() + a_and_b.measure(),
              a.measure() + b.measure(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSets, IntervalAlgebraTest,
                         ::testing::Range(0, 25));

TEST(AngleInterval, ContainsOwnBoundaries) {
  // Regression (found by hipo_fuzz): contains() used to apply its epsilon
  // only on the far side of the interval, so end() — whose normalization
  // can round the delta a few ulp past width — was sometimes reported
  // outside its own interval. Both boundaries now share kAngleEps.
  hipo::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const AngleInterval iv(rng.angle(), rng.uniform(1e-6, kTwoPi));
    EXPECT_TRUE(iv.contains(iv.start))
        << "start=" << iv.start << " width=" << iv.width;
    EXPECT_TRUE(iv.contains(iv.end()))
        << "start=" << iv.start << " width=" << iv.width;
    EXPECT_TRUE(iv.contains(iv.mid()))
        << "start=" << iv.start << " width=" << iv.width;
  }
}

TEST(AngleInterval, BoundaryContainmentAcrossWrap) {
  // Interval crossing the 0/2π seam: both endpoints and angles just inside
  // either side of the seam are members; the antipode is not.
  const AngleInterval iv(kTwoPi - 0.25, 0.5);
  EXPECT_TRUE(iv.contains(iv.start));
  EXPECT_TRUE(iv.contains(iv.end()));
  EXPECT_TRUE(iv.contains(0.0));
  EXPECT_TRUE(iv.contains(kTwoPi - 1e-15));
  EXPECT_FALSE(iv.contains(kPi));
}

TEST(AngleIntervalSet, ContainsMemberBoundaries) {
  AngleIntervalSet set;
  set.insert(AngleInterval(0.3, 0.4));
  set.insert(AngleInterval(kTwoPi - 0.2, 0.3));  // wraps through 0
  for (const auto& iv : set.intervals()) {
    EXPECT_TRUE(set.contains(iv.start));
    EXPECT_TRUE(set.contains(iv.end()));
  }
}

}  // namespace
}  // namespace hipo::geom
