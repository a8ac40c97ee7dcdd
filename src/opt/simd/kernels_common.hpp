// Canonical scalar bodies of the gain kernels, shared by the variant TUs.
//
// Everything here has internal linkage on purpose: kernels_scalar.cpp and
// kernels_avx2.cpp are compiled with different -m flags, and an ordinary
// inline function defined in both would leave the linker free to keep the
// AVX2-compiled copy — an illegal-instruction trap on a non-AVX2 machine.
// With an anonymous namespace each TU owns its private copy, compiled with
// that TU's own flags.
//
// The row-gain fold order is the bit-identity contract between variants
// (see gain_kernels.hpp): four lane accumulators over groups of four,
// combined ((l0+l1)+(l2+l3)), sequential tail. The AVX2 TU uses these
// bodies for its tails, so tails are identical by construction too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/opt/simd/gain_kernels.hpp"

namespace hipo::opt::simd {
namespace {

/// Per-element utility delta: the one IEEE expression both variants
/// evaluate (add, min, min, sub, mul — no division, no FMA).
inline double utility_delta(double acc, double q, double th, double wot) {
  const double m1 = std::min(acc + q, th);
  const double m0 = std::min(acc, th);
  return (m1 - m0) * wot;
}

inline double row_gain_utility_generic(const std::uint32_t* ids, const double* powers,
                                std::size_t n, const double* acc,
                                const double* th, const double* wot) {
  const std::size_t n4 = n & ~std::size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (std::size_t k = 0; k < n4; k += 4) {
    const std::size_t j0 = ids[k], j1 = ids[k + 1];
    const std::size_t j2 = ids[k + 2], j3 = ids[k + 3];
    l0 += utility_delta(acc[j0], powers[k], th[j0], wot[j0]);
    l1 += utility_delta(acc[j1], powers[k + 1], th[j1], wot[j1]);
    l2 += utility_delta(acc[j2], powers[k + 2], th[j2], wot[j2]);
    l3 += utility_delta(acc[j3], powers[k + 3], th[j3], wot[j3]);
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (std::size_t k = n4; k < n; ++k) {
    const std::size_t j = ids[k];
    sum += utility_delta(acc[j], powers[k], th[j], wot[j]);
  }
  return sum;
}

/// Log-utility per-element delta. Kept sequential-scalar in every variant
/// (both dispatch tables share one compiled copy, from kernels_scalar.cpp),
/// so the fold order here matches the utility kernels' contract anyway for
/// uniformity of the cross-kind tests.
inline double row_gain_log_generic(const std::uint32_t* ids, const double* powers,
                            std::size_t n, const double* acc,
                            const double* th, const double* w) {
  const std::size_t n4 = n & ~std::size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  const auto delta = [](double a, double q, double t, double wj) {
    const double u1 = std::min(a + q, t) / t;
    const double u0 = std::min(a, t) / t;
    return wj * std::log1p(u1) - wj * std::log1p(u0);
  };
  for (std::size_t k = 0; k < n4; k += 4) {
    const std::size_t j0 = ids[k], j1 = ids[k + 1];
    const std::size_t j2 = ids[k + 2], j3 = ids[k + 3];
    l0 += delta(acc[j0], powers[k], th[j0], w[j0]);
    l1 += delta(acc[j1], powers[k + 1], th[j1], w[j1]);
    l2 += delta(acc[j2], powers[k + 2], th[j2], w[j2]);
    l3 += delta(acc[j3], powers[k + 3], th[j3], w[j3]);
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (std::size_t k = n4; k < n; ++k) {
    const std::size_t j = ids[k];
    sum += delta(acc[j], powers[k], th[j], w[j]);
  }
  return sum;
}

}  // namespace
}  // namespace hipo::opt::simd
