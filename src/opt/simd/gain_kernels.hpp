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
//   * The argmax kernels do no arithmetic at all — only exact comparisons —
//     so "maximum gain, lowest index on exact ties" has one well-defined
//     answer regardless of how many lanes scan it.
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

/// Argmax scan result: strictly largest value above the caller's threshold
/// and the lowest index attaining it; index == kNoIndex when nothing
/// qualified (gain is then meaningless).
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
struct ArgmaxHit {
  double gain = 0.0;
  std::size_t index = kNoIndex;
};

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

  /// Blocked SoA argmax over gains[begin, end): strictly largest gain
  /// > min_gain among rows with eligible[i] != 0, lowest index on exact
  /// ties — Algorithm 3's sequential-scan semantics.
  ArgmaxHit (*argmax_f64)(const double* gains, const std::uint8_t* eligible,
                          std::size_t begin, std::size_t end, double min_gain);

  /// Max of the quantized-gain lane over [begin, end) (0 when empty).
  std::uint16_t (*max_u16)(const std::uint16_t* quant, std::size_t begin,
                           std::size_t end);

  /// Exact recheck of the quantized shortlist: scan [begin, end) for rows
  /// with quant[i] == qmax (qmax >= 1) and argmax their *exact* gains with
  /// the same strict/lowest-index semantics as argmax_f64. `*rechecks` is
  /// incremented once per shortlisted row.
  ArgmaxHit (*argmax_f64_where_u16)(const std::uint16_t* quant,
                                    std::uint16_t qmax, const double* gains,
                                    std::size_t begin, std::size_t end,
                                    double min_gain, std::uint64_t* rechecks);
};

/// The table for the currently dispatched ISA (one relaxed atomic load).
const GainKernels& kernels();
/// A specific variant's table (kScalar always valid; kAvx2 requires
/// avx2_compiled(), else throws ConfigError).
const GainKernels& kernels(Isa isa);

/// u16 fixed-point gain quantization for the top-k shortlist scan.
/// Monotone non-decreasing in g, and 0 exactly when g fails the `min_gain`
/// positivity test — so rows quantized to the lane maximum are a superset
/// of the exact argmax set, and a 0 lane max means "nothing selectable".
inline std::uint16_t quantize_gain(double g, double min_gain) {
  if (!(g > min_gain)) return 0;
  if (g >= 1.0) return 65535;
  const double scaled = g * 65535.0;
  const auto q = static_cast<std::uint32_t>(scaled);
  // ceil without libm: g > 0 here, so scaled in (0, 65535).
  return static_cast<std::uint16_t>(
      static_cast<double>(q) == scaled ? (q == 0 ? 1 : q) : q + 1);
}

}  // namespace hipo::opt::simd
