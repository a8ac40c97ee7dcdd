#include "src/opt/exhaustive.hpp"

#include <algorithm>

#include "src/model/los_cache.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

namespace {

class Solver {
 public:
  Solver(const model::Scenario& scenario,
         std::span<const pdcs::Candidate> candidates,
         const ExactOptions& options)
      : objective_(scenario, candidates, ObjectiveKind::kUtility),
        matroid_(placement_matroid(scenario, objective_)),
        candidates_(candidates),
        options_(options) {}

  ExactResult run() {
    // Seed the incumbent with the greedy solution — a strong initial lower
    // bound that lets the bound prune aggressively.
    ChargingObjective::State state(objective_);
    PartitionMatroid::Tracker tracker(matroid_);
    best_value_ = 0.0;
    best_.clear();
    std::vector<std::size_t> chosen;
    branch(0, state, tracker, chosen);

    ExactResult out;
    out.nodes_explored = nodes_;
    out.result.selected = best_;
    out.result.approx_utility = best_value_;
    for (std::size_t i : best_) {
      out.result.placement.push_back(objective_.strategy(i));
    }
    model::LosCache cache(objective_.scenario());
    out.result.exact_utility = cache.placement_utility(out.result.placement);
    return out;
  }

 private:
  /// Submodular upper bound: current value plus the sum of the largest
  /// per-part remaining gains (at most the remaining capacity of each part).
  double upper_bound(std::size_t next,
                     const ChargingObjective::State& state,
                     const PartitionMatroid::Tracker& tracker) const {
    std::vector<std::vector<double>> gains(matroid_.num_parts());
    for (std::size_t i = next; i < candidates_.size(); ++i) {
      if (!tracker.can_add(i)) continue;
      const double g = state.gain(i);
      if (g > 0.0) gains[matroid_.part_of(i)].push_back(g);
    }
    double bound = state.value();
    for (std::size_t p = 0; p < gains.size(); ++p) {
      auto& gs = gains[p];
      std::sort(gs.begin(), gs.end(), std::greater<>());
      const std::size_t take = std::min(gs.size(), remaining_capacity(p));
      for (std::size_t k = 0; k < take; ++k) bound += gs[k];
    }
    return bound;
  }

  std::size_t remaining_capacity(std::size_t part) const {
    return matroid_.capacity(part) >= chosen_per_part_[part]
               ? matroid_.capacity(part) - chosen_per_part_[part]
               : 0;
  }

  void branch(std::size_t next, ChargingObjective::State& state,
              PartitionMatroid::Tracker& tracker,
              std::vector<std::size_t>& chosen) {
    if (++nodes_ > options_.max_nodes) {
      throw ConfigError("exact_select exceeded max_nodes; instance too big");
    }
    if (state.value() > best_value_ + 1e-15) {
      best_value_ = state.value();
      best_ = chosen;
    }
    if (next >= candidates_.size()) return;
    if (upper_bound(next, state, tracker) <= best_value_ + 1e-12) return;

    // Branch 1: include `next` (if feasible and useful).
    if (tracker.can_add(next) && state.gain(next) > 0.0) {
      // State/tracker have no undo; copy for the include branch. Candidate
      // sets for exact solving are small, so the copies are cheap.
      ChargingObjective::State inc_state = state;
      PartitionMatroid::Tracker inc_tracker = tracker;
      inc_state.add(next);
      inc_tracker.add(next);
      ++chosen_per_part_[matroid_.part_of(next)];
      chosen.push_back(next);
      branch(next + 1, inc_state, inc_tracker, chosen);
      chosen.pop_back();
      --chosen_per_part_[matroid_.part_of(next)];
    }
    // Branch 2: exclude `next`.
    branch(next + 1, state, tracker, chosen);
  }

  ChargingObjective objective_;
  PartitionMatroid matroid_;
  std::span<const pdcs::Candidate> candidates_;
  ExactOptions options_;
  double best_value_ = 0.0;
  std::vector<std::size_t> best_;
  std::vector<std::size_t> chosen_per_part_ =
      std::vector<std::size_t>(matroid_.num_parts(), 0);
  std::size_t nodes_ = 0;
};

}  // namespace

ExactResult exact_select(const model::Scenario& scenario,
                         std::span<const pdcs::Candidate> candidates,
                         const ExactOptions& options) {
  Solver solver(scenario, candidates, options);
  return solver.run();
}

}  // namespace hipo::opt
