// Scalar variant of the gain kernels: the canonical fold from
// kernels_common.hpp, compiled with the project's baseline flags (no -mavx2,
// -ffp-contract=off). This TU is the reference the AVX2 variant must match
// bit for bit.
#include "src/opt/simd/kernels_common.hpp"
#include "src/opt/simd/table_decls.hpp"

namespace hipo::opt::simd {

namespace {

double scalar_row_gain_utility_u32(const std::uint32_t* ids,
                                   const double* powers, std::size_t n,
                                   const double* acc, const double* th,
                                   const double* wot) {
  return row_gain_utility_generic(ids, powers, n, acc, th, wot);
}

ArgmaxHit scalar_argmax_f64(const double* gains, const std::uint8_t* eligible,
                            std::size_t begin, std::size_t end,
                            double min_gain) {
  return argmax_f64_generic(gains, eligible, begin, end, min_gain);
}

std::uint16_t scalar_max_u16(const std::uint16_t* quant, std::size_t begin,
                             std::size_t end) {
  return max_u16_generic(quant, begin, end);
}

ArgmaxHit scalar_argmax_f64_where_u16(const std::uint16_t* quant,
                                      std::uint16_t qmax, const double* gains,
                                      std::size_t begin, std::size_t end,
                                      double min_gain,
                                      std::uint64_t* rechecks) {
  return argmax_f64_where_u16_generic(quant, qmax, gains, begin, end, min_gain,
                                      rechecks);
}

}  // namespace

namespace detail {

double row_gain_log_u32(const std::uint32_t* ids, const double* powers,
                        std::size_t n, const double* acc, const double* th,
                        const double* w) {
  return row_gain_log_generic(ids, powers, n, acc, th, w);
}

const GainKernels* scalar_table() {
  static const GainKernels table{
      scalar_row_gain_utility_u32, row_gain_log_u32,
      scalar_argmax_f64,           scalar_max_u16,
      scalar_argmax_f64_where_u16,
  };
  return &table;
}

}  // namespace detail

}  // namespace hipo::opt::simd
