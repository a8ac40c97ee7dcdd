#include "src/opt/objective.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/opt/simd/gain_kernels.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

ChargingObjective::ChargingObjective(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates, ObjectiveKind kind)
    : scenario_(&scenario),
      matrix_(std::make_unique<CoverageMatrix>(candidates,
                                               scenario.num_devices())),
      mat_(matrix_.get()),
      kind_(kind) {
  init_device_caches(scenario);
}

ChargingObjective::ChargingObjective(const model::Scenario& scenario,
                                     const CoverageMatrix& prebuilt,
                                     ObjectiveKind kind)
    : scenario_(&scenario), mat_(&prebuilt), kind_(kind) {
  HIPO_REQUIRE(prebuilt.num_devices() == scenario.num_devices(),
               "prebuilt coverage matrix does not match the scenario");
  init_device_caches(scenario);
}

void ChargingObjective::init_device_caches(const model::Scenario& scenario) {
  p_th_.reserve(scenario.num_devices());
  weight_.reserve(scenario.num_devices());
  weight_over_pth_.reserve(scenario.num_devices());
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    p_th_.push_back(scenario.device(j).p_th);
    weight_.push_back(scenario.device(j).weight);
    weight_over_pth_.push_back(scenario.device(j).weight /
                               scenario.device(j).p_th);
    weight_total_ += scenario.device(j).weight;
  }
}

const model::Strategy& ChargingObjective::strategy(std::size_t i) const {
  HIPO_ASSERT(i < mat_->num_rows());
  return mat_->strategy(i);
}

double ChargingObjective::value(std::span<const std::size_t> selected) const {
  State state(*this);
  for (std::size_t i : selected) state.add(i);
  return state.value();
}

ChargingObjective::State::State(const ChargingObjective& objective)
    : objective_(&objective), power_(objective.p_th_.size(), 0.0) {}

void ChargingObjective::State::enable_incremental() {
  if (!dirty_.empty()) return;
  const std::size_t n = objective_->num_candidates();
  if (n == 0) return;
  cached_gain_.assign(n, 0.0);
  dirty_.assign(n, 1);  // nothing cached yet: every row starts stale
}

double ChargingObjective::State::recompute_gain(std::size_t i) const {
  const ChargingObjective& o = *objective_;
  // Early-outs ahead of any candidate lookup: a device-free scenario has no
  // utility to gain, and a zero total weight would divide by zero below.
  if (o.p_th_.empty() || o.weight_total_ <= 0.0) return 0.0;
  // Every evaluation routes through the dispatched kernel table, which
  // guarantees one canonical expression and fold order per row — the
  // source of the scalar ≡ AVX2 bit-identity.
  const simd::GainKernels& k = simd::kernels();
  HIPO_ASSERT(i < o.mat_->num_rows());
  const auto covered = o.mat_->covered(i);
  const auto powers = o.mat_->powers(i);
  const double delta =
      o.kind_ == ObjectiveKind::kUtility
          ? k.row_gain_utility_u32(covered.data(), powers.data(),
                                   covered.size(), power_.data(),
                                   o.p_th_.data(), o.weight_over_pth_.data())
          : k.row_gain_log_u32(covered.data(), powers.data(), covered.size(),
                               power_.data(), o.p_th_.data(),
                               o.weight_.data());
  return delta / o.weight_total_;
}

double ChargingObjective::State::gain(std::size_t i) const {
  if (!dirty_.empty()) {
    if (dirty_[i]) {
      // Same expressions, same fold order as every other evaluation of
      // this row — the refreshed cache entry is bit-identical to what a
      // cache-free State would compute.
      const double g = recompute_gain(i);
      cached_gain_[i] = g;
      dirty_[i] = 0;
      if (obs::metrics_enabled()) [[unlikely]] {
        static obs::Counter& recomputes =
            obs::counter("coverage.gain_recomputes");
        recomputes.bump();
      }
      return g;
    }
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& avoided = obs::counter("coverage.reevals_avoided");
      avoided.bump();
    }
    return cached_gain_[i];
  }
  return recompute_gain(i);
}

BestGain ChargingObjective::State::best_gain(
    std::span<const std::size_t> pool, std::size_t begin, std::size_t end,
    const std::vector<bool>& taken) const {
  BestGain best;
  std::size_t clean_hits = 0;
  if (!dirty_.empty()) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = pool[k];
      if (dirty_[i] == 0) {
        // Clean fast path — with a warmed-up cache this branch is ~all of
        // the scan, so its cost *is* the argmax floor: one byte load, one
        // double load, one (almost always false) compare. No call, no
        // per-row counter check, and crucially no vector<bool> bit test:
        // the taken check is deferred into the would-win branch, which is
        // correct because skipping it can only ever *admit* a row, and a
        // taken row is vetoed right there before it can become the
        // incumbent.
        ++clean_hits;
        const double g = cached_gain_[i];
        if (g > best.gain && g > kMinGain && !taken[i]) {
          best.gain = g;
          best.index = i;
        }
        continue;
      }
      if (taken[i]) continue;  // stays dirty; never selectable again
      const double g = gain(i);
      if (g <= kMinGain) continue;  // not worth a charger
      if (g > best.gain) {  // strict: exact ties keep the earlier index
        best.gain = g;
        best.index = i;
      }
    }
  } else {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = pool[k];
      if (taken[i]) continue;
      const double g = gain(i);
      if (g <= kMinGain) continue;  // not worth a charger
      if (g > best.gain) {  // strict: exact ties keep the earlier index
        best.gain = g;
        best.index = i;
      }
    }
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    // Bulk-bump once per scan.
    static obs::Counter& rows = obs::counter("coverage.rows_scanned");
    static obs::Counter& avoided = obs::counter("coverage.reevals_avoided");
    rows.add(end - begin);
    avoided.add(clean_hits);
  }
  return best;
}

void ChargingObjective::State::add(std::size_t i) {
  value_ += gain(i);
  const CoverageMatrix& mat = *objective_->mat_;
  HIPO_ASSERT(i < mat.num_rows());
  const auto covered = mat.covered(i);
  const auto powers = mat.powers(i);
  for (std::size_t k = 0; k < covered.size(); ++k) {
    power_[covered[k]] += powers[k];
  }
  if (!dirty_.empty()) {
    // Dirty propagation: only rows sharing a covered device with i can see
    // a different marginal gain — exactly the union of the inverted index's
    // lists for i's devices. Everything else keeps its cached gain,
    // bit-identical to a fresh recomputation.
    for (std::uint32_t j : covered) {
      for (std::uint32_t r : mat.rows_covering(j)) dirty_[r] = 1;
    }
  }
}

}  // namespace hipo::opt
