// The SIMD gain-kernel layer (src/opt/simd/): dispatch plumbing, bit-level
// parity of every kernel between the scalar and AVX2 variants (including
// tie-breaks, tails, and unaligned [begin, end) windows), the quantization
// invariants the top-k shortlist rests on, dense-vs-pooled argmax
// equivalence, full placement identity across ISA × quantize × greedy mode
// × objective kind × thread count against the scalar single-threaded
// baseline, and the kernel-path observability counters.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fuzz/generator.hpp"
#include "src/model/scenario.hpp"
#include "src/obs/metrics.hpp"
#include "src/opt/greedy.hpp"
#include "src/opt/objective.hpp"
#include "src/opt/simd/gain_kernels.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

using opt::simd::ArgmaxHit;
using opt::simd::GainKernels;
using opt::simd::Isa;
using opt::simd::kNoIndex;
using test::have_avx2;
using test::IsaGuard;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random row-kernel inputs: `n` coverage entries over `num_devices`
/// devices, with accumulated powers straddling the p_th saturation point so
/// both min() branches are exercised.
struct RowInputs {
  std::vector<std::uint32_t> ids32;
  std::vector<double> powers;
  std::vector<double> acc;
  std::vector<double> th;
  std::vector<double> wot;
  std::vector<double> w;
};

RowInputs make_row_inputs(std::size_t n, std::size_t num_devices, Rng& rng) {
  RowInputs in;
  for (std::size_t k = 0; k < n; ++k) {
    const auto j = static_cast<std::uint32_t>(rng.below(num_devices));
    in.ids32.push_back(j);
    in.powers.push_back(rng.uniform(0.01, 0.9));
  }
  for (std::size_t j = 0; j < num_devices; ++j) {
    in.acc.push_back(rng.uniform(0.0, 1.5));
    in.th.push_back(rng.uniform(0.5, 2.0));
    in.w.push_back(rng.uniform(0.1, 3.0));
    in.wot.push_back(in.w.back() / in.th.back());
  }
  return in;
}

/// Sequential reference for argmax_f64's contract: strictly largest
/// eligible gain above min_gain, lowest index on exact ties, zero gain when
/// nothing qualifies.
ArgmaxHit ref_argmax(const std::vector<double>& gains,
                     const std::vector<std::uint8_t>& eligible,
                     std::size_t begin, std::size_t end, double min_gain) {
  ArgmaxHit hit;
  hit.gain = min_gain;
  for (std::size_t i = begin; i < end; ++i) {
    if (eligible[i] != 0 && gains[i] > hit.gain) {
      hit.gain = gains[i];
      hit.index = i;
    }
  }
  if (hit.index == kNoIndex) hit.gain = 0.0;
  return hit;
}

ArgmaxHit ref_argmax_where(const std::vector<std::uint16_t>& quant,
                           std::uint16_t qmax,
                           const std::vector<double>& gains, std::size_t begin,
                           std::size_t end, double min_gain,
                           std::uint64_t* rechecks) {
  ArgmaxHit hit;
  hit.gain = min_gain;
  for (std::size_t i = begin; i < end; ++i) {
    if (quant[i] != qmax) continue;
    ++*rechecks;
    if (gains[i] > hit.gain) {
      hit.gain = gains[i];
      hit.index = i;
    }
  }
  if (hit.index == kNoIndex) hit.gain = 0.0;
  return hit;
}

// Sizes chosen to hit every vector-width boundary: empty, sub-width,
// exact multiples of 4 (f64 lanes) and 16 (u16 lanes), and off-by-one
// around both.
const std::size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 100};

TEST(SimdDispatch, ScalarAlwaysAvailableAndForceRoundTrips) {
  IsaGuard guard;
  opt::simd::force_isa(Isa::kScalar);
  EXPECT_EQ(opt::simd::active_isa(), Isa::kScalar);
  EXPECT_STREQ(opt::simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(opt::simd::isa_name(Isa::kAvx2), "avx2");
  // The scalar table is complete.
  const GainKernels& k = opt::simd::kernels(Isa::kScalar);
  EXPECT_NE(k.row_gain_utility_u32, nullptr);
  EXPECT_NE(k.row_gain_log_u32, nullptr);
  EXPECT_NE(k.argmax_f64, nullptr);
  EXPECT_NE(k.max_u16, nullptr);
  EXPECT_NE(k.argmax_f64_where_u16, nullptr);

  if (have_avx2()) {
    opt::simd::force_isa(Isa::kAvx2);
    EXPECT_EQ(opt::simd::active_isa(), Isa::kAvx2);
  } else if (!opt::simd::avx2_compiled()) {
    EXPECT_THROW(opt::simd::force_isa(Isa::kAvx2), ConfigError);
  }
}

TEST(SimdDispatch, Avx2TableSharesLogKernelsWithScalar) {
  if (!opt::simd::avx2_compiled()) {
    GTEST_SKIP() << "AVX2 kernels not compiled into this build";
  }
  // kLogUtility must be dispatch-invariant by construction: both tables
  // point at the identical (scalar) log kernels.
  const GainKernels& s = opt::simd::kernels(Isa::kScalar);
  const GainKernels& v = opt::simd::kernels(Isa::kAvx2);
  EXPECT_EQ(s.row_gain_log_u32, v.row_gain_log_u32);
  // The vectorized kernels are genuinely different code.
  EXPECT_NE(s.row_gain_utility_u32, v.row_gain_utility_u32);
  EXPECT_NE(s.argmax_f64, v.argmax_f64);
}

TEST(KernelParity, RowGainBitIdenticalScalarVsAvx2) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable";
  const GainKernels& s = opt::simd::kernels(Isa::kScalar);
  const GainKernels& v = opt::simd::kernels(Isa::kAvx2);
  Rng rng(2024);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto in = make_row_inputs(n, 64, rng);
      const double s32 =
          s.row_gain_utility_u32(in.ids32.data(), in.powers.data(), n,
                                 in.acc.data(), in.th.data(), in.wot.data());
      const double v32 =
          v.row_gain_utility_u32(in.ids32.data(), in.powers.data(), n,
                                 in.acc.data(), in.th.data(), in.wot.data());
      EXPECT_EQ(bits(s32), bits(v32)) << "n=" << n << " trial " << trial;
    }
  }
}

TEST(KernelParity, ArgmaxMatchesSequentialReference) {
  const GainKernels& s = opt::simd::kernels(Isa::kScalar);
  const GainKernels* v = have_avx2() ? &opt::simd::kernels(Isa::kAvx2) : nullptr;
  Rng rng(7);
  constexpr double kMin = 1e-15;
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<double> gains(n);
      std::vector<std::uint8_t> eligible(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Draw from 5 discrete levels (including 0 and an exact duplicate
        // band) so exact ties across indices are common, plus a
        // sub-threshold value that must never win.
        const std::size_t level = rng.below(5);
        const double levels[] = {0.0, 1e-16, 0.25, 0.5, 0.5};
        gains[i] = levels[level];
        eligible[i] = rng.below(4) != 0 ? 1 : 0;
      }
      // Unaligned windows too, not just [0, n).
      const std::size_t begin = n > 2 ? rng.below(n / 2) : 0;
      const std::size_t end = n;
      const ArgmaxHit want = ref_argmax(gains, eligible, begin, end, kMin);
      const ArgmaxHit got =
          s.argmax_f64(gains.data(), eligible.data(), begin, end, kMin);
      EXPECT_EQ(got.index, want.index) << "scalar n=" << n << " t" << trial;
      EXPECT_EQ(bits(got.gain), bits(want.gain))
          << "scalar n=" << n << " t" << trial;
      if (v != nullptr) {
        const ArgmaxHit vec =
            v->argmax_f64(gains.data(), eligible.data(), begin, end, kMin);
        EXPECT_EQ(vec.index, want.index) << "avx2 n=" << n << " t" << trial;
        EXPECT_EQ(bits(vec.gain), bits(want.gain))
            << "avx2 n=" << n << " t" << trial;
      }
    }
  }
}

TEST(KernelParity, MaxU16AndShortlistRecheck) {
  const GainKernels& s = opt::simd::kernels(Isa::kScalar);
  const GainKernels* v = have_avx2() ? &opt::simd::kernels(Isa::kAvx2) : nullptr;
  Rng rng(99);
  constexpr double kMin = 1e-15;
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::uint16_t> quant(n);
      std::vector<double> gains(n);
      bool all_zero = trial == 0;  // exercise the "nothing selectable" lane
      for (std::size_t i = 0; i < n; ++i) {
        quant[i] = all_zero ? 0 : static_cast<std::uint16_t>(rng.below(4));
        // Exact gain consistent with the quantized image: strictly positive
        // iff quant is nonzero, with deliberate exact ties.
        gains[i] = quant[i] == 0 ? 0.0 : 0.125 * quant[i];
      }
      const std::size_t begin = n > 2 ? rng.below(n / 2) : 0;
      const std::size_t end = n;

      std::uint16_t ref_max = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (quant[i] > ref_max) ref_max = quant[i];
      }
      EXPECT_EQ(s.max_u16(quant.data(), begin, end), ref_max) << "n=" << n;
      if (v != nullptr) {
        EXPECT_EQ(v->max_u16(quant.data(), begin, end), ref_max) << "n=" << n;
      }
      if (ref_max == 0) continue;

      std::uint64_t want_rechecks = 0;
      const ArgmaxHit want = ref_argmax_where(quant, ref_max, gains, begin,
                                              end, kMin, &want_rechecks);
      std::uint64_t got_rechecks = 0;
      const ArgmaxHit got =
          s.argmax_f64_where_u16(quant.data(), ref_max, gains.data(), begin,
                                 end, kMin, &got_rechecks);
      EXPECT_EQ(got.index, want.index) << "scalar n=" << n << " t" << trial;
      EXPECT_EQ(bits(got.gain), bits(want.gain)) << "scalar n=" << n;
      EXPECT_EQ(got_rechecks, want_rechecks) << "scalar n=" << n;
      if (v != nullptr) {
        std::uint64_t vec_rechecks = 0;
        const ArgmaxHit vec =
            v->argmax_f64_where_u16(quant.data(), ref_max, gains.data(),
                                    begin, end, kMin, &vec_rechecks);
        EXPECT_EQ(vec.index, want.index) << "avx2 n=" << n << " t" << trial;
        EXPECT_EQ(bits(vec.gain), bits(want.gain)) << "avx2 n=" << n;
        EXPECT_EQ(vec_rechecks, want_rechecks) << "avx2 n=" << n;
      }
    }
  }
}

TEST(QuantizeGain, ZeroIffBelowThresholdAndMonotone) {
  constexpr double kMin = 1e-15;
  // Zero exactly when the positivity test fails — the property that makes
  // "lane max == 0" equivalent to "no selectable candidate".
  EXPECT_EQ(opt::simd::quantize_gain(0.0, kMin), 0);
  EXPECT_EQ(opt::simd::quantize_gain(-1.0, kMin), 0);
  EXPECT_EQ(opt::simd::quantize_gain(kMin, kMin), 0);  // not strictly above
  EXPECT_GE(opt::simd::quantize_gain(1e-14, kMin), 1);
  // Saturation and the upper edge.
  EXPECT_EQ(opt::simd::quantize_gain(1.0, kMin), 65535);
  EXPECT_EQ(opt::simd::quantize_gain(2.0, kMin), 65535);
  EXPECT_EQ(opt::simd::quantize_gain(0.9999999, kMin), 65535);
  // Monotone over a dense sweep (the superset-shortlist argument needs
  // nothing stronger than non-decreasing).
  std::uint16_t prev = 0;
  for (int i = 0; i <= 10000; ++i) {
    const double g = static_cast<double>(i) / 10000.0;
    const std::uint16_t q = opt::simd::quantize_gain(g, kMin);
    EXPECT_GE(q, prev) << "g=" << g;
    prev = q;
  }
  // ceil: a gain strictly inside a bucket rounds up, never down to a
  // bucket whose exact members it could then shadow.
  EXPECT_EQ(opt::simd::quantize_gain(1.0 / 65535.0, kMin), 1);
  EXPECT_EQ(opt::simd::quantize_gain(1.5 / 65535.0, kMin), 2);
}

/// Dense blocked-SoA rounds must pick the exact sequence the pooled
/// reference scan picks, quantized or not, under either ISA.
TEST(DenseArgmax, MatchesPooledScanRoundForRound) {
  const auto scenario = test::small_paper_scenario(17, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  ASSERT_GE(cands.size(), 8u);

  const opt::ChargingObjective objective(scenario, cands);

  // Pooled reference picks.
  std::vector<std::size_t> ids(cands.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::vector<std::size_t> want;
  {
    opt::ChargingObjective::State state(objective);
    state.enable_incremental();
    std::vector<bool> taken(cands.size(), false);
    for (int r = 0; r < 24; ++r) {
      const auto best = state.best_gain(ids, 0, ids.size(), taken);
      if (!best.found()) break;
      taken[best.index] = true;
      state.add(best.index);
      want.push_back(best.index);
    }
    ASSERT_FALSE(want.empty());
  }

  std::vector<Isa> isas = {Isa::kScalar};
  if (have_avx2()) isas.push_back(Isa::kAvx2);
  IsaGuard guard;
  for (const Isa isa : isas) {
    opt::simd::force_isa(isa);
    for (const bool quantize : {false, true}) {
      opt::ChargingObjective::State state(objective);
      state.enable_incremental(quantize);
      EXPECT_EQ(state.quantized(), quantize);
      std::vector<std::size_t> got;
      for (int r = 0; r < 24; ++r) {
        const auto best = state.best_gain_dense(0, cands.size());
        if (!best.found()) break;
        state.mark_ineligible(best.index);
        state.add(best.index);
        got.push_back(best.index);
      }
      EXPECT_EQ(got, want) << "isa " << opt::simd::isa_name(isa)
                           << " quantize " << quantize;
    }
  }
}

/// Retiring and re-admitting a row keeps the quantized lane coherent: a
/// re-admitted clean row must be scannable again with its exact image.
TEST(DenseArgmax, EligibilityRoundTripRestoresQuantLane) {
  const auto scenario = test::small_paper_scenario(9, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  ASSERT_GE(cands.size(), 2u);

  const opt::ChargingObjective objective(scenario, cands);
  opt::ChargingObjective::State state(objective);
  state.enable_incremental(/*quantize=*/true);

  const auto first = state.best_gain_dense(0, cands.size());
  ASSERT_TRUE(first.found());
  // Retire the winner: the next dense scan must pick someone else.
  state.mark_ineligible(first.index);
  EXPECT_FALSE(state.is_eligible(first.index));
  const auto second = state.best_gain_dense(0, cands.size());
  if (second.found()) EXPECT_NE(second.index, first.index);
  // Re-admit: the original winner wins again with the identical gain.
  state.set_eligible(first.index, true);
  const auto again = state.best_gain_dense(0, cands.size());
  ASSERT_TRUE(again.found());
  EXPECT_EQ(again.index, first.index);
  EXPECT_EQ(bits(again.gain), bits(first.gain));
}

// The headline bit-identity property: every (ISA × quantize × threads)
// variant reproduces the scalar, non-quantized, single-threaded placement
// exactly, across greedy modes and objective kinds — on the paper-style
// scenario and an adversarial fuzz scenario.
TEST(PlacementIdentity, AcrossIsaQuantizeModeKindThreads) {
  std::vector<model::Scenario> scenarios;
  scenarios.push_back(test::small_paper_scenario(13, 2, 2));
  {
    fuzz::GeneratorOptions gen;
    gen.adversarial_bias = 1.0;
    scenarios.emplace_back(fuzz::random_config(41, gen));
  }

  std::vector<Isa> isas = {Isa::kScalar};
  if (have_avx2()) isas.push_back(Isa::kAvx2);
  IsaGuard guard;

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const auto& scenario = scenarios[si];
    const auto extraction = pdcs::extract_all(scenario);
    if (extraction.candidates.empty()) continue;

    for (const auto mode :
         {opt::GreedyMode::kPerType, opt::GreedyMode::kGlobal,
          opt::GreedyMode::kLazyGlobal}) {
      for (const auto kind :
           {opt::ObjectiveKind::kUtility, opt::ObjectiveKind::kLogUtility}) {
        // Baseline: forced-scalar kernels, no quantization, no pool.
        opt::simd::force_isa(Isa::kScalar);
        const auto base = opt::select_strategies(
            scenario, extraction.candidates, mode, kind);
        for (const std::size_t workers : {0u, 1u, 4u}) {
          std::unique_ptr<parallel::ThreadPool> pool;
          if (workers > 0) {
            pool = std::make_unique<parallel::ThreadPool>(workers);
          }
          for (const Isa isa : isas) {
            opt::simd::force_isa(isa);
            for (const bool quantize : {false, true}) {
              const auto run = opt::select_strategies(
                  scenario, extraction.candidates, mode, kind, pool.get(),
                  quantize);
              const std::string label =
                  "scenario " + std::to_string(si) + " mode " +
                  std::to_string(static_cast<int>(mode)) + " kind " +
                  std::to_string(static_cast<int>(kind)) + " workers " +
                  std::to_string(workers) + " isa " +
                  opt::simd::isa_name(isa) + " quantize " +
                  std::to_string(quantize);
              EXPECT_EQ(run.selected, base.selected) << label;
              EXPECT_EQ(bits(run.approx_utility), bits(base.approx_utility))
                  << label;
              EXPECT_EQ(bits(run.exact_utility), bits(base.exact_utility))
                  << label;
            }
          }
        }
      }
    }
  }
}

TEST(Counters, DenseArgmaxBumpsKernelPathCounters) {
  const auto scenario = test::small_paper_scenario(23, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  ASSERT_FALSE(extraction.candidates.empty());

  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  (void)opt::select_strategies(scenario, extraction.candidates,
                               opt::GreedyMode::kGlobal,
                               opt::ObjectiveKind::kUtility, nullptr,
                               /*quantize=*/true);
  const std::uint64_t simd_rows = obs::counter("coverage.simd_rows").value();
  const std::uint64_t rechecks =
      obs::counter("gain.quantized_rechecks").value();
  const std::uint64_t rows = obs::counter("coverage.rows_scanned").value();
  obs::set_metrics_enabled(false);
  obs::reset_metrics();

  EXPECT_GT(simd_rows, 0u);
  EXPECT_GT(rechecks, 0u);
  // Dense rows are a subset of all scanned rows.
  EXPECT_GE(rows, simd_rows);
}

}  // namespace
}  // namespace hipo
