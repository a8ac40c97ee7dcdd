#include "src/opt/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <string>

#include "src/model/los_cache.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

GreedyMode parse_greedy_mode(std::string_view name) {
  if (name == "lazy") return GreedyMode::kLazyGlobal;
  if (name == "per-type") return GreedyMode::kPerType;
  if (name == "global") {
    throw ConfigError(
        "greedy mode 'global' was removed: 'lazy' runs the same matroid "
        "greedy and gives the byte-identical placement");
  }
  throw ConfigError("greedy mode '" + std::string(name) +
                    "' is not one of 'lazy', 'per-type'");
}

PartitionMatroid placement_matroid(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates) {
  std::vector<std::size_t> part_of;
  part_of.reserve(candidates.size());
  for (const auto& c : candidates) part_of.push_back(c.strategy.type);
  std::vector<std::size_t> caps;
  caps.reserve(scenario.num_charger_types());
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    caps.push_back(static_cast<std::size_t>(scenario.charger_count(q)));
  }
  return PartitionMatroid(std::move(part_of), std::move(caps));
}

PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   const ChargingObjective& objective) {
  std::vector<std::size_t> part_of;
  part_of.reserve(objective.num_candidates());
  for (std::size_t i = 0; i < objective.num_candidates(); ++i) {
    part_of.push_back(objective.strategy(i).type);
  }
  std::vector<std::size_t> caps;
  caps.reserve(scenario.num_charger_types());
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    caps.push_back(static_cast<std::size_t>(scenario.charger_count(q)));
  }
  return PartitionMatroid(std::move(part_of), std::move(caps));
}

namespace {

/// Rows per pool iteration of a heap build.
constexpr std::size_t kHeapBuildBlock = 1024;

/// Marginal-gain buckets: the utility objective is normalized to [0, 1], so
/// accepted gains live on a log-ish scale below 1.
constexpr double kGainBounds[] = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                  0.05, 0.1,  0.25, 0.5,  1.0};

/// Record one accepted greedy pick (count + gain distribution).
void note_selection(double gain) {
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& selections = obs::counter("greedy.selections");
    static obs::Histogram& gains = obs::histogram("greedy.gain", kGainBounds);
    selections.bump();
    gains.observe(gain);
  }
}

/// Explain the zero-utility devices of a selection: a device no row covers
/// at all (an empty CSR column) could not have been served by any choice;
/// one whose rows all went unselected lost out to the budget. Gauges, set
/// per call, so they describe the last selection, not a sum over solves.
void note_unserved_devices(const ChargingObjective& objective,
                           const GreedyResult& result) {
  if (!obs::metrics_enabled()) [[likely]] return;
  const CoverageMatrix& mat = objective.matrix();
  std::vector<std::uint8_t> served(mat.num_devices(), 0);
  for (std::size_t i : result.selected) {
    for (std::uint32_t j : mat.covered(i)) served[j] = 1;
  }
  std::uint64_t uncoverable = 0;
  std::uint64_t unserved = 0;
  for (std::size_t j = 0; j < mat.num_devices(); ++j) {
    if (mat.rows_covering(j).empty()) {
      ++uncoverable;
    } else if (served[j] == 0) {
      ++unserved;
    }
  }
  static obs::Gauge& uncoverable_gauge =
      obs::gauge("greedy.devices_uncoverable");
  static obs::Gauge& unserved_gauge = obs::gauge("greedy.devices_unserved");
  uncoverable_gauge.set(static_cast<double>(uncoverable));
  unserved_gauge.set(static_cast<double>(unserved));
}

void finish(const model::Scenario& scenario,
            const ChargingObjective& objective, GreedyResult& result,
            const ChargingObjective::State& state,
            parallel::ThreadPool* workers) {
  result.approx_utility = state.value();
  result.placement.clear();
  result.placement.reserve(result.selected.size());
  for (std::size_t i : result.selected) {
    result.placement.push_back(objective.strategy(i));
  }
  note_unserved_devices(objective, result);
  // Memoized exact evaluation: strategies at the same position share LOS
  // traces across devices and placement slots (result identical to
  // Scenario::placement_utility).
  obs::ScopedPhase phase("exact_eval");
  model::LosCache cache(scenario);
  result.exact_utility = cache.placement_utility(result.placement, workers);
}

/// Minoux's lazy greedy over `rows` (ascending row indices): every row
/// whose gain under the current state exceeds kMinGain enters a max-heap,
/// then rows are picked until `budget` picks are made or the heap empties.
/// Rows of a matroid part that is already full are dropped when popped.
/// The round of an entry is the selection count its gain was computed at,
/// so an entry is fresh iff no pick has happened since.
void lazy_greedy(std::span<const std::size_t> rows, std::size_t budget,
                 ChargingObjective::State& state,
                 PartitionMatroid::Tracker& tracker, GreedyResult& result,
                 parallel::ThreadPool* workers) {
  if (budget == 0) return;  // e.g. a zero-count charger type
  struct Entry {
    double gain;
    std::size_t index;
    std::size_t round;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return index > other.index;  // deterministic tie-break: lower index wins
    }
  };
  // Gains at the heap build are independent of each other (the state does
  // not change during it), so they parallelize over disjoint blocks of
  // rows; the heap is then built in row order, identical to the sequential
  // construction. A block, not a row, per pool iteration: one row's gain
  // costs tens of nanoseconds, less than the pool's per-iteration claim.
  std::vector<double> initial(rows.size());
  const std::size_t blocks = (rows.size() + kHeapBuildBlock - 1) /
                             kHeapBuildBlock;
  parallel::chunked_for(workers, blocks, [&](std::size_t b) {
    const std::size_t end = std::min(rows.size(), (b + 1) * kHeapBuildBlock);
    for (std::size_t k = b * kHeapBuildBlock; k < end; ++k) {
      initial[k] = state.gain(rows[k]);
    }
  });
  if (obs::metrics_enabled()) [[unlikely]] {
    // The heap build is the engine's one full scan of its rows.
    static obs::Counter& scanned = obs::counter("coverage.rows_scanned");
    scanned.add(rows.size());
  }
  const std::size_t start = result.selected.size();
  std::priority_queue<Entry> heap;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (initial[k] > kMinGain) heap.push({initial[k], rows[k], start});
  }

  while (result.selected.size() - start < budget && !heap.empty()) {
    const bool obs_on = obs::metrics_enabled();
    const std::size_t round = result.selected.size();
    Entry top = heap.top();
    heap.pop();
    if (obs_on) [[unlikely]] {
      static obs::Counter& pops = obs::counter("greedy.lazy_pops");
      pops.bump();
    }
    if (!tracker.can_add(top.index)) continue;  // part already full
    if (top.round != round) {
      if (obs_on) [[unlikely]] {
        static obs::Counter& reevals = obs::counter("greedy.lazy_reevals");
        reevals.bump();
      }
      const double g = state.gain(top.index);
      if (g <= kMinGain) continue;  // gains only shrink: drop for good
      top.gain = g;
      top.round = round;
      // Demotion uses the heap's own exact ordering (Entry::operator<),
      // not a fuzzy band: with the refreshed gain, `top` stays selected
      // only if it would still be the heap's maximum. Every other entry's
      // gain is an upper bound on its current gain, so this picks what an
      // eager scan of the same rows picks — the strictly largest gain,
      // lower index on exact ties.
      if (!heap.empty() && top < heap.top()) {
        heap.push(top);
        continue;
      }
    }
    tracker.add(top.index);
    state.add(top.index);
    result.selected.push_back(top.index);
    note_selection(top.gain);
  }
}

/// Shared by both public entry points, so the warm-matrix path runs the
/// exact same driver code (and therefore the exact same selection) as the
/// cold span path.
GreedyResult run_greedy(const model::Scenario& scenario,
                        const ChargingObjective& objective, GreedyMode mode,
                        parallel::ThreadPool* workers) {
  const std::size_t n = objective.num_candidates();
  ChargingObjective::State state(objective);
  state.enable_incremental();
  const PartitionMatroid matroid = placement_matroid(scenario, objective);
  PartitionMatroid::Tracker tracker(matroid);
  GreedyResult result;

  if (mode == GreedyMode::kPerType) {
    // Algorithm 3: one lazy heap per type phase, built on the state the
    // earlier phases left. Each phase is a greedy over a submodular
    // function, so the lazy argument holds phase by phase.
    std::vector<std::vector<std::size_t>> rows_of_type(matroid.num_parts());
    for (std::size_t i = 0; i < n; ++i) {
      rows_of_type[matroid.part_of(i)].push_back(i);
    }
    for (std::size_t q = 0; q < rows_of_type.size(); ++q) {
      lazy_greedy(rows_of_type[q], matroid.capacity(q), state, tracker,
                  result, workers);
    }
  } else {
    std::vector<std::size_t> rows(n);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    lazy_greedy(rows, matroid.rank(), state, tracker, result, workers);
  }
  finish(scenario, objective, result, state, workers);
  return result;
}

}  // namespace

GreedyResult select_strategies(const model::Scenario& scenario,
                               std::span<const pdcs::Candidate> candidates,
                               GreedyMode mode, ObjectiveKind kind,
                               parallel::ThreadPool* workers) {
  const ChargingObjective objective(scenario, candidates, kind);
  return run_greedy(scenario, objective, mode, workers);
}

GreedyResult select_strategies(const model::Scenario& scenario,
                               const CoverageMatrix& matrix, GreedyMode mode,
                               ObjectiveKind kind,
                               parallel::ThreadPool* workers) {
  const ChargingObjective objective(scenario, matrix, kind);
  return run_greedy(scenario, objective, mode, workers);
}

}  // namespace hipo::opt
