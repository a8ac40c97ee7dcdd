#include "src/core/solver.hpp"

#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/opt/local_search.hpp"

namespace hipo::core {

SolveResult solve(const model::Scenario& scenario,
                  const SolveOptions& options) {
  obs::ScopedPhase solve_phase("solve");
  SolveResult result;
  {
    obs::ScopedPhase phase("extract");
    result.extraction = pdcs::extract_all(scenario, options.extract,
                                          options.pool);
  }
  {
    obs::ScopedPhase phase("greedy");
    result.greedy = opt::select_strategies(scenario,
                                           result.extraction.candidates,
                                           options.greedy,
                                           opt::ObjectiveKind::kUtility,
                                           options.pool);
  }
  if (options.local_search) {
    obs::ScopedPhase phase("local_search");
    result.greedy = opt::local_search_improve(scenario,
                                              result.extraction.candidates,
                                              result.greedy)
                        .result;
  }
  result.placement = result.greedy.placement;
  result.utility = result.greedy.exact_utility;
  result.approx_utility = result.greedy.approx_utility;
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::gauge("solve.utility").set(result.utility);
    obs::gauge("solve.approx_utility").set(result.approx_utility);
    obs::gauge("solve.placement_size")
        .set(static_cast<double>(result.placement.size()));
  }
  return result;
}

}  // namespace hipo::core
