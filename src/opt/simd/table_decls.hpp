// Private cross-TU wiring for the kernel dispatch. Each variant TU exports
// exactly one symbol — its table — so nothing compiled with -mavx2 can leak
// into a scalar caller through the linker.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/opt/simd/gain_kernels.hpp"

namespace hipo::opt::simd::detail {

/// The scalar variant's table. Never null.
const GainKernels* scalar_table();

/// The AVX2 variant's table, or null when the TU was built without AVX2
/// support (compiler lacks -mavx2, or a non-x86 target).
const GainKernels* avx2_table();

/// Log-utility row kernel — one scalar compilation shared by both tables,
/// defined in kernels_scalar.cpp (vectorizing log1p would change rounding).
double row_gain_log_u32(const std::uint32_t* ids, const double* powers,
                        std::size_t n, const double* acc, const double* th,
                        const double* w);

}  // namespace hipo::opt::simd::detail
