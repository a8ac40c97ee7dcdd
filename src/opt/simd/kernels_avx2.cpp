// AVX2 variant of the gain kernels. Compiled with -mavx2 (and only this TU
// is); when the compiler can't target AVX2 the whole variant collapses to a
// null table and dispatch stays scalar.
//
// Bit-identity with kernels_scalar.cpp:
//   * Row gains keep the canonical fold: the 4-wide vector accumulator IS
//     the four lane accumulators (lane L sums elements k ≡ L mod 4), the
//     horizontal combine is spelled ((l0+l1)+(l2+l3)) in scalar code, and
//     tails reuse the shared per-element expression. No FMA is emitted:
//     mul and add are separate intrinsics and the TU is built with
//     -ffp-contract=off.
//   * _mm256_min_pd picks the second operand on exact ties, which is only
//     observable for (+0.0, -0.0) pairs; accumulated powers and thresholds
//     are non-negative here, so ties are bitwise equal either way.
#include "src/opt/simd/table_decls.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "src/opt/simd/kernels_common.hpp"

namespace hipo::opt::simd {
namespace {

/// ((l0+l1)+(l2+l3)) over the vector accumulator's lanes, in scalar code so
/// the association is exactly the canonical fold's.
double combine_lanes(__m256d vsum) {
  double lane[4];
  _mm256_storeu_pd(lane, vsum);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/// base[idx[l]] for the four lanes. A masked gather with every lane on and
/// a zeroed source loads the same values as the unmasked one, whose
/// source operand GCC 12 reports as maybe-uninitialized.
__m256d gather(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

double avx2_row_gain_utility_u32(const std::uint32_t* ids,
                                 const double* powers, std::size_t n,
                                 const double* acc, const double* th,
                                 const double* wot) {
  const std::size_t n4 = n & ~std::size_t{3};
  __m256d vsum = _mm256_setzero_pd();
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ids + k));
    const __m256d vacc = gather(acc, idx);
    const __m256d vth = gather(th, idx);
    const __m256d vwot = gather(wot, idx);
    const __m256d vq = _mm256_loadu_pd(powers + k);
    const __m256d m1 = _mm256_min_pd(_mm256_add_pd(vacc, vq), vth);
    const __m256d m0 = _mm256_min_pd(vacc, vth);
    const __m256d delta = _mm256_mul_pd(_mm256_sub_pd(m1, m0), vwot);
    vsum = _mm256_add_pd(vsum, delta);
  }
  double sum = combine_lanes(vsum);
  for (std::size_t k = n4; k < n; ++k) {
    const std::size_t j = ids[k];
    sum += utility_delta(acc[j], powers[k], th[j], wot[j]);
  }
  return sum;
}

}  // namespace

namespace detail {

const GainKernels* avx2_table() {
  static const GainKernels table{avx2_row_gain_utility_u32,
                                 row_gain_log_u32};
  return &table;
}

}  // namespace detail
}  // namespace hipo::opt::simd

#else  // !defined(__AVX2__)

namespace hipo::opt::simd::detail {

const GainKernels* avx2_table() { return nullptr; }

}  // namespace hipo::opt::simd::detail

#endif
