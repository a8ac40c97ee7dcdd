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
//   * The argmax kernels compare; they never round. Each vector lane scans
//     its residue class sequentially (strict >, so a lane keeps the lowest
//     index attaining its lane max), and the horizontal fold walks lanes in
//     index order taking the strictly-better gain or the lower index on
//     exact gain ties — the sequential scan's answer exactly.
#include "src/opt/simd/table_decls.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

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

double avx2_row_gain_utility_u32(const std::uint32_t* ids,
                                 const double* powers, std::size_t n,
                                 const double* acc, const double* th,
                                 const double* wot) {
  const std::size_t n4 = n & ~std::size_t{3};
  __m256d vsum = _mm256_setzero_pd();
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ids + k));
    const __m256d vacc = _mm256_i32gather_pd(acc, idx, 8);
    const __m256d vth = _mm256_i32gather_pd(th, idx, 8);
    const __m256d vwot = _mm256_i32gather_pd(wot, idx, 8);
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

ArgmaxHit avx2_argmax_f64(const double* gains, const std::uint8_t* eligible,
                          std::size_t begin, std::size_t end,
                          double min_gain) {
  ArgmaxHit hit{min_gain, kNoIndex};
  std::size_t i = begin;
  if (end - begin >= 4) {
    __m256d vbest = _mm256_set1_pd(min_gain);
    __m256i vidx = _mm256_set1_epi64x(-1);
    __m256i vcur = _mm256_set_epi64x(
        static_cast<long long>(begin + 3), static_cast<long long>(begin + 2),
        static_cast<long long>(begin + 1), static_cast<long long>(begin));
    const __m256i vstep = _mm256_set1_epi64x(4);
    const __m256i vzero = _mm256_setzero_si256();
    const std::size_t vend = begin + ((end - begin) & ~std::size_t{3});
    for (; i < vend; i += 4) {
      std::uint32_t word;
      std::memcpy(&word, eligible + i, 4);
      const __m256i e64 =
          _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(word)));
      const __m256i elig = _mm256_cmpgt_epi64(e64, vzero);
      const __m256d vg = _mm256_loadu_pd(gains + i);
      const __m256d gt = _mm256_cmp_pd(vg, vbest, _CMP_GT_OQ);
      const __m256d upd = _mm256_and_pd(gt, _mm256_castsi256_pd(elig));
      vbest = _mm256_blendv_pd(vbest, vg, upd);
      vidx = _mm256_blendv_epi8(vidx, vcur, _mm256_castpd_si256(upd));
      vcur = _mm256_add_epi64(vcur, vstep);
    }
    double lane_best[4];
    long long lane_idx[4];
    _mm256_storeu_pd(lane_best, vbest);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane_idx), vidx);
    for (int l = 0; l < 4; ++l) {
      if (lane_idx[l] < 0) continue;
      const auto idx = static_cast<std::size_t>(lane_idx[l]);
      if (lane_best[l] > hit.gain) {
        hit.gain = lane_best[l];
        hit.index = idx;
      } else if (lane_best[l] == hit.gain && idx < hit.index) {
        // hit.index != kNoIndex here: a lane with an index holds a gain
        // strictly above min_gain, so the first such lane already updated.
        hit.index = idx;
      }
    }
  }
  for (; i < end; ++i) {
    if (eligible[i] != 0 && gains[i] > hit.gain) {
      hit.gain = gains[i];
      hit.index = i;
    }
  }
  if (hit.index == kNoIndex) hit.gain = 0.0;
  return hit;
}

std::uint16_t avx2_max_u16(const std::uint16_t* quant, std::size_t begin,
                           std::size_t end) {
  std::uint16_t best = 0;
  std::size_t i = begin;
  if (end - begin >= 16) {
    __m256i vmax = _mm256_setzero_si256();
    const std::size_t vend = begin + ((end - begin) & ~std::size_t{15});
    for (; i < vend; i += 16) {
      vmax = _mm256_max_epu16(
          vmax,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(quant + i)));
    }
    __m128i m = _mm_max_epu16(_mm256_castsi256_si128(vmax),
                              _mm256_extracti128_si256(vmax, 1));
    m = _mm_max_epu16(m, _mm_srli_si128(m, 8));
    m = _mm_max_epu16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epu16(m, _mm_srli_si128(m, 2));
    best = static_cast<std::uint16_t>(_mm_extract_epi16(m, 0));
  }
  for (; i < end; ++i) {
    if (quant[i] > best) best = quant[i];
  }
  return best;
}

ArgmaxHit avx2_argmax_f64_where_u16(const std::uint16_t* quant,
                                    std::uint16_t qmax, const double* gains,
                                    std::size_t begin, std::size_t end,
                                    double min_gain, std::uint64_t* rechecks) {
  ArgmaxHit hit{min_gain, kNoIndex};
  std::uint64_t n = 0;
  std::size_t i = begin;
  const __m256i vq = _mm256_set1_epi16(static_cast<short>(qmax));
  if (end - begin >= 16) {
    const std::size_t vend = begin + ((end - begin) & ~std::size_t{15});
    for (; i < vend; i += 16) {
      const __m256i cmp = _mm256_cmpeq_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(quant + i)),
          vq);
      auto mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(cmp));
      while (mask != 0) {
        const int bit = __builtin_ctz(mask);
        // Each u16 match sets a pair of byte-mask bits; bit is even.
        const std::size_t p = i + static_cast<std::size_t>(bit >> 1);
        ++n;
        if (gains[p] > hit.gain) {
          hit.gain = gains[p];
          hit.index = p;
        }
        mask &= ~(std::uint32_t{3} << bit);
      }
    }
  }
  for (; i < end; ++i) {
    if (quant[i] != qmax) continue;
    ++n;
    if (gains[i] > hit.gain) {
      hit.gain = gains[i];
      hit.index = i;
    }
  }
  *rechecks += n;
  if (hit.index == kNoIndex) hit.gain = 0.0;
  return hit;
}

}  // namespace

namespace detail {

const GainKernels* avx2_table() {
  static const GainKernels table{
      avx2_row_gain_utility_u32, row_gain_log_u32,
      avx2_argmax_f64,           avx2_max_u16,
      avx2_argmax_f64_where_u16,
  };
  return &table;
}

}  // namespace detail
}  // namespace hipo::opt::simd

#else  // !defined(__AVX2__)

namespace hipo::opt::simd::detail {

const GainKernels* avx2_table() { return nullptr; }

}  // namespace hipo::opt::simd::detail

#endif
