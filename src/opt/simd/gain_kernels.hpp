// Data-parallel kernels for the gain evaluation, behind a runtime CPU
// dispatch: one binary carries an AVX2 variant (x86 with -mavx2 available at
// build time) and a scalar variant of every kernel, and picks per process at
// first use. The two variants are bit-identical by construction:
//
//   * The marginal-gain row sum uses one canonical fold for both: four lane
//     accumulators over groups of four entries, combined as
//     ((l0+l1)+(l2+l3)), then a sequential tail. Each per-element delta is
//     the same IEEE expression (add, min, min, sub, mul — no FMA anywhere,
//     and the kernel TUs are compiled with -ffp-contract=off so the scalar
//     build cannot silently fuse what the intrinsics spell out).
//
// The log-utility row kernels are shared scalar code (vectorizing log1p
// would change its rounding); both dispatch tables point at the same
// function, so dispatch never affects kLogUtility results either.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hipo::opt::simd {

/// Kernel instruction sets this build can dispatch between. kAvx2 is only
/// selectable when the kernels were compiled in AND the CPU reports AVX2.
enum class Isa { kScalar, kAvx2 };

const char* isa_name(Isa isa);

/// Runtime CPU capability (false on non-x86 builds).
bool cpu_has_avx2();
/// True when the AVX2 kernel TU was compiled into this binary.
bool avx2_compiled();

/// The ISA the kernel table currently dispatches to. Defaults to the best
/// supported one; the HIPO_SIMD environment variable (scalar|avx2|auto)
/// overrides the default at first use.
Isa active_isa();
/// Pin dispatch to `isa` (throws ConfigError if unsupported on this
/// machine/build). Intended for CLI flags, CI overrides, and the A/B
/// identity tests; not for mid-solve switching.
void force_isa(Isa isa);
/// Drop any force_isa pin and re-run auto detection (env still honored).
void reset_isa();

/// One variant set of the gain kernels. All pointers are non-null.
struct GainKernels {
  /// Marginal gain of one row under the utility objective:
  ///   Σ_k (min(acc[j]+q, th[j]) − min(acc[j], th[j])) · wot[j]
  /// with j = ids[k], q = powers[k], folded in the canonical lane order.
  /// `wot` is weight/p_th precomputed per device. Caller normalizes.
  double (*row_gain_utility_u32)(const std::uint32_t* ids,
                                 const double* powers, std::size_t n,
                                 const double* acc, const double* th,
                                 const double* wot);
  /// Log-utility row gain: Σ_k w[j]·log1p(u1) − w[j]·log1p(u0) with
  /// u = min(x, th)/th. Shared scalar code in every table.
  double (*row_gain_log_u32)(const std::uint32_t* ids, const double* powers,
                             std::size_t n, const double* acc,
                             const double* th, const double* w);
};

/// The table for the currently dispatched ISA (one relaxed atomic load).
const GainKernels& kernels();
/// A specific variant's table (kScalar always valid; kAvx2 requires
/// avx2_compiled(), else throws ConfigError).
const GainKernels& kernels(Isa isa);

}  // namespace hipo::opt::simd
