#include "src/fuzz/reference_greedy.hpp"

#include <numeric>
#include <vector>

#include "src/opt/matroid.hpp"

namespace hipo::fuzz {

opt::GreedyResult reference_greedy(const model::Scenario& scenario,
                                   const opt::ChargingObjective& objective,
                                   opt::GreedyMode mode) {
  const std::size_t n = objective.num_candidates();
  opt::ChargingObjective::State state(objective);
  const opt::PartitionMatroid matroid =
      opt::placement_matroid(scenario, objective);
  opt::PartitionMatroid::Tracker tracker(matroid);
  opt::GreedyResult result;
  // `taken` retires picked rows and, in global mode, every row of a full
  // part; the scan then only ever sees feasible rows.
  std::vector<bool> taken(n, false);
  const auto pick = [&](std::span<const std::size_t> pool) {
    const opt::BestGain best = state.best_gain(pool, 0, pool.size(), taken);
    if (!best.found()) return false;
    taken[best.index] = true;
    tracker.add(best.index);
    state.add(best.index);
    result.selected.push_back(best.index);
    return true;
  };

  if (mode == opt::GreedyMode::kPerType) {
    for (std::size_t q = 0; q < matroid.num_parts(); ++q) {
      std::vector<std::size_t> pool;
      for (std::size_t i = 0; i < n; ++i) {
        if (matroid.part_of(i) == q) pool.push_back(i);
      }
      for (std::size_t k = 0; k < matroid.capacity(q); ++k) {
        if (!pick(pool)) break;
      }
    }
  } else {
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    const auto retire_full_parts = [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (!tracker.can_add(i)) taken[i] = true;
      }
    };
    retire_full_parts();  // zero-capacity parts are full from the start
    while (!tracker.saturated() && pick(pool)) retire_full_parts();
  }

  result.approx_utility = state.value();
  for (std::size_t i : result.selected) {
    result.placement.push_back(objective.strategy(i));
  }
  result.exact_utility = scenario.placement_utility(result.placement);
  return result;
}

opt::GreedyResult reference_greedy(const model::Scenario& scenario,
                                   std::span<const pdcs::Candidate> candidates,
                                   opt::GreedyMode mode,
                                   opt::ObjectiveKind kind) {
  const opt::ChargingObjective objective(scenario, candidates, kind);
  return reference_greedy(scenario, objective, mode);
}

}  // namespace hipo::fuzz
