// Eager reference for opt::select_strategies: the same two greedy modes,
// with every round a full State::best_gain scan instead of the lazy heap.
// The ctests and the `greedy`/`simd` fuzz oracles hold the lazy engine to
// it bit for bit — selection order, both utilities and the placement.
#pragma once

#include <span>

#include "src/model/scenario.hpp"
#include "src/opt/greedy.hpp"
#include "src/opt/objective.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::fuzz {

/// kPerType: Algorithm 3 — for each charger type in order, pick the
/// type's rows by repeated argmax until its budget is filled or no row
/// gains more than kMinGain. kLazyGlobal: the textbook matroid greedy,
/// run eagerly — each round argmaxes over every row of a part that is not
/// yet full. Sequential and pool-free; exact utility from
/// Scenario::placement_utility.
opt::GreedyResult reference_greedy(const model::Scenario& scenario,
                                   const opt::ChargingObjective& objective,
                                   opt::GreedyMode mode);

/// Same, over a candidate span packed into a fresh objective of `kind`.
opt::GreedyResult reference_greedy(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates, opt::GreedyMode mode,
    opt::ObjectiveKind kind = opt::ObjectiveKind::kUtility);

}  // namespace hipo::fuzz
