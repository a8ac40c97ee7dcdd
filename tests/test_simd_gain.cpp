// The SIMD gain-kernel layer (src/opt/simd/): dispatch plumbing, bit-level
// parity of the row-gain kernel between the scalar and AVX2 variants
// (including tails), and full placement identity across ISA × greedy mode
// × objective kind × thread count against the eager reference greedy on
// scalar kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fuzz/generator.hpp"
#include "src/fuzz/reference_greedy.hpp"
#include "src/model/scenario.hpp"
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

using opt::simd::GainKernels;
using opt::simd::Isa;
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

// Sizes chosen to hit every vector-width boundary: empty, sub-width,
// exact multiples of 4 (f64 lanes), and off-by-one around them.
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

// The headline bit-identity property: under every (ISA × threads) variant
// the lazy engine reproduces the eager reference greedy on scalar kernels
// exactly, for both greedy modes and objective kinds — on the paper-style
// scenario and an adversarial fuzz scenario.
TEST(PlacementIdentity, AcrossIsaModeKindThreads) {
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
         {opt::GreedyMode::kPerType, opt::GreedyMode::kLazyGlobal}) {
      for (const auto kind :
           {opt::ObjectiveKind::kUtility, opt::ObjectiveKind::kLogUtility}) {
        opt::simd::force_isa(Isa::kScalar);
        const auto base = fuzz::reference_greedy(
            scenario, extraction.candidates, mode, kind);
        for (const std::size_t workers : {0u, 1u, 4u}) {
          std::unique_ptr<parallel::ThreadPool> pool;
          if (workers > 0) {
            pool = std::make_unique<parallel::ThreadPool>(workers);
          }
          for (const Isa isa : isas) {
            opt::simd::force_isa(isa);
            const auto run = opt::select_strategies(
                scenario, extraction.candidates, mode, kind, pool.get());
            const std::string label =
                "scenario " + std::to_string(si) + " mode " +
                std::to_string(static_cast<int>(mode)) + " kind " +
                std::to_string(static_cast<int>(kind)) + " workers " +
                std::to_string(workers) + " isa " + opt::simd::isa_name(isa);
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

}  // namespace
}  // namespace hipo
