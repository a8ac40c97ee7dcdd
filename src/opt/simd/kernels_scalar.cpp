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

}  // namespace

namespace detail {

double row_gain_log_u32(const std::uint32_t* ids, const double* powers,
                        std::size_t n, const double* acc, const double* th,
                        const double* w) {
  return row_gain_log_generic(ids, powers, n, acc, th, w);
}

const GainKernels* scalar_table() {
  static const GainKernels table{scalar_row_gain_utility_u32,
                                 row_gain_log_u32};
  return &table;
}

}  // namespace detail

}  // namespace hipo::opt::simd
