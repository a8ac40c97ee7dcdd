// Greedy strategy selection under the partition matroid (Section 4.3).
//
// Two modes, one engine — Minoux's lazy greedy over a max-heap of stale
// gain upper bounds:
//   * PerType    — Algorithm 3 verbatim: iterate charger types in order and
//                  fill each type's budget greedily, gains evaluated on the
//                  global state. Each type phase is its own lazy heap.
//   * LazyGlobal — the textbook matroid greedy: at every step pick the
//                  feasible candidate with the best global marginal gain.
// Both achieve the 1/2 bound for monotone submodular f under a matroid
// constraint [Fisher–Nemhauser–Wolsey; ref 38]. Within a heap, gains only
// shrink (submodularity), so a stale bound is an upper bound and the lazy
// loop picks exactly what an eager full scan would: the strictly largest
// gain, lower index on exact ties.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/matroid.hpp"
#include "src/opt/objective.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::opt {

enum class GreedyMode { kPerType, kLazyGlobal };

/// The mode a front end names: "lazy" (kLazyGlobal) or "per-type". The one
/// list of accepted names for hipo_solve, hipo_shard and the serve
/// protocol; ConfigError for anything else (the removed "global" included,
/// whose output "lazy" reproduces byte for byte).
GreedyMode parse_greedy_mode(std::string_view name);

struct GreedyResult {
  /// Indices into the candidate span, in selection order.
  std::vector<std::size_t> selected;
  /// The selected strategies (one per deployed charger).
  model::Placement placement;
  /// Objective value f(X) under approximated powers.
  double approx_utility = 0.0;
  /// Exact Eq. (1)-(3) utility of the placement.
  double exact_utility = 0.0;
};

/// Build the partition matroid for `candidates` from the scenario's per-type
/// charger budget.
PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   std::span<const pdcs::Candidate> candidates);

/// Same matroid, read off an objective's row metadata (the CSR strategy
/// arena) instead of the candidate structs. Identical output; this is what
/// the greedy drivers use so the selection loop never touches the
/// vector-of-vectors representation.
PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   const ChargingObjective& objective);

/// Select strategies greedily. Stops early when no remaining candidate has
/// positive gain and every budget is either filled or its part exhausted.
/// `kind` selects the per-device transform (kLogUtility gives the
/// proportional-fairness objective of Section 8.3). When `workers` is
/// given, the heap builds' gain evaluations and the exact-utility
/// evaluation run on the pool; both are element-wise, so the result is
/// bit-identical for any worker count (including none). The pool is packed
/// into a CoverageMatrix and both modes run on the dirty-gain incremental
/// state. Each row's gain goes through one canonical kernel expression and
/// fold order, so results are bit-identical across ISAs (ctest-asserted).
/// With metrics on, also sets the gauges greedy.devices_uncoverable (the
/// devices no row covers) and greedy.devices_unserved (those no selected
/// row covers) for this selection. An empty pool yields an empty placement.
GreedyResult select_strategies(const model::Scenario& scenario,
                               std::span<const pdcs::Candidate> candidates,
                               GreedyMode mode = GreedyMode::kPerType,
                               ObjectiveKind kind = ObjectiveKind::kUtility,
                               parallel::ThreadPool* workers = nullptr);

/// Warm-matrix overload (the delta path): run the same greedy drivers over
/// a caller-owned, already-built CoverageMatrix — no packing, no candidate
/// span. Selection indices are matrix row indices. Because the drivers are
/// shared with the span overload, a warm matrix that is bit-identical to
/// the one the span overload would build yields a bit-identical result.
GreedyResult select_strategies(const model::Scenario& scenario,
                               const CoverageMatrix& matrix,
                               GreedyMode mode = GreedyMode::kPerType,
                               ObjectiveKind kind = ObjectiveKind::kUtility,
                               parallel::ThreadPool* workers = nullptr);

}  // namespace hipo::opt
