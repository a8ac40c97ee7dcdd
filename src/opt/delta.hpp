// Incremental re-solve for dynamic scenarios (ROADMAP open item 2).
//
// DeltaSolver holds a solved scenario warm: the per-device extraction
// outputs, the per-type dominance-filtered pools, and the flat CSR
// CoverageMatrix the greedy runs on. A delta — device added/removed/moved,
// obstacle added/removed — invalidates only the extraction tasks whose
// geometry the delta can reach (a 4·d_max disk, see the radius argument in
// docs/ALGORITHMS.md); those tasks are re-extracted, the per-type pools are
// re-filtered, and the matrix arenas are patched in place (tombstone +
// splice via CoverageMatrix::apply_patch) instead of rebuilt. The greedy
// then re-runs over the warm matrix.
//
// The contract is *bit-identity*: after any sequence of deltas, the
// placement, utilities, and the matrix itself are byte-for-byte what a cold
// solve of the mutated scenario would produce (enforced by the `delta` fuzz
// oracle and tests/test_delta_solver.cpp). Warmth buys the extraction work
// back, not an approximation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/model/scenario.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate_gen.hpp"

namespace hipo::opt {

/// One mutation of the scenario. Indices always refer to the *current*
/// (post-previous-delta) device/obstacle lists. Added devices append at the
/// end of the device list; removing shifts later indices down by one (the
/// matrix columns are remapped to match). Obstacles behave the same way.
struct DeltaOp {
  enum class Kind : std::uint8_t {
    kAddDevice,
    kRemoveDevice,
    kMoveDevice,
    kAddObstacle,
    kRemoveObstacle,
  };

  Kind kind = Kind::kAddDevice;
  /// kAddDevice: the full device record to append.
  model::Device device;
  /// kRemoveDevice / kMoveDevice: device index; kRemoveObstacle: obstacle
  /// index.
  std::size_t index = 0;
  /// kMoveDevice: the new position (and, when has_orientation, the new
  /// facing angle — otherwise the orientation is kept).
  geom::Vec2 pos;
  bool has_orientation = false;
  double orientation = 0.0;
  /// kAddObstacle: the polygon to append (must be simple).
  std::vector<geom::Vec2> obstacle;
};

/// What one apply() did, for the bench harness and the obs counters.
struct DeltaStats {
  /// Extraction tasks re-run / total tasks after the delta.
  std::size_t tasks_regenerated = 0;
  std::size_t tasks_total = 0;
  /// Raw candidates produced by the re-run tasks (pre-filter).
  std::size_t candidates_regenerated = 0;
  /// Matrix rows removed / spliced in / carried over by the patch.
  std::size_t rows_erased = 0;
  std::size_t rows_inserted = 0;
  std::size_t rows_kept = 0;
  /// True when the affected fraction crossed rebuild_fraction and every
  /// task was re-extracted (the patch then inserts everything).
  bool full_rebuild = false;
  /// CoverageMatrix::PatchStats::in_place of the splice.
  bool in_place = false;
};

struct DeltaOptions {
  /// Greedy configuration of each re-solve; must match the cold solve being
  /// compared against for the bit-identity contract to mean anything. The
  /// defaults mirror core::SolveOptions (local search has no incremental
  /// path and is deliberately absent).
  GreedyMode mode = GreedyMode::kLazyGlobal;
  ObjectiveKind kind = ObjectiveKind::kUtility;
  pdcs::ExtractOptions extract;
  /// When more than this fraction of tasks is invalidated, re-extract all
  /// of them (counted in delta.full_rebuilds) — the diff bookkeeping would
  /// cost more than it saves.
  double rebuild_fraction = 0.5;
  parallel::ThreadPool* workers = nullptr;
};

/// Warm incremental solver. Construction runs the cold pipeline once;
/// apply() patches it per delta. Not thread-safe (one mutation at a time);
/// internal extraction/filter/greedy work parallelizes on options.workers.
class DeltaSolver {
 public:
  explicit DeltaSolver(model::Scenario::Config config,
                       DeltaOptions options = {});

  /// Apply one mutation: re-extract the invalidated neighborhood, patch the
  /// matrix, re-run greedy. Throws ConfigError on invalid ops (index out of
  /// range, non-simple obstacle, bad device parameters).
  DeltaStats apply(const DeltaOp& op);

  const model::Scenario& scenario() const { return *scenario_; }
  /// The current scenario's config (the mutated copy of the input).
  const model::Scenario::Config& config() const { return config_; }
  /// The warm matrix the last greedy ran on (tombstone-free).
  const CoverageMatrix& matrix() const { return matrix_; }
  /// The last solve result (selection indices are matrix row indices).
  const GreedyResult& result() const { return result_; }
  std::size_t num_candidates() const { return matrix_.num_rows(); }

 private:
  /// One candidate's identity across deltas: which task emitted it and at
  /// which position in that task's output. Stable for untouched tasks, so
  /// (task, emit) matches old matrix rows to re-filtered pool entries.
  struct Tag {
    std::uint32_t task = 0;
    std::uint32_t emit = 0;
  };

  void rebuild_scenario();
  /// Re-extract `affected` tasks, re-filter every type pool, diff against
  /// the current matrix rows and patch. `removed_task`/`removed_device` are
  /// the pre-delta index of a removed device (kNone otherwise).
  void refresh(const std::vector<std::uint8_t>& affected,
               std::size_t removed_task, DeltaStats& stats);
  std::vector<std::uint8_t> affected_tasks(
      const std::vector<geom::Vec2>& points,
      const std::vector<geom::BBox>& boxes) const;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  model::Scenario::Config config_;
  DeltaOptions options_;
  /// Rebuilt from config_ after every mutation (cheap relative to
  /// extraction); optional only because Scenario has no default state.
  std::optional<model::Scenario> scenario_;
  /// Cached per-device extraction outputs, index-aligned with
  /// config_.devices. Inner vectors move wholesale on device insert/erase,
  /// so Candidate addresses stay valid while a refresh borrows them.
  std::vector<std::vector<pdcs::Candidate>> per_task_;
  /// Per charger type, the tags of the surviving pool entries, aligned with
  /// the matrix rows of that type (matrix row order is type-major).
  std::vector<std::vector<Tag>> kept_;
  CoverageMatrix matrix_;
  GreedyResult result_;
};

/// Parse a JSONL delta script (one op object per line, schema in
/// docs/FORMATS.md). Blank lines and lines starting with '#' are skipped.
/// Throws ConfigError naming the offending line.
std::vector<DeltaOp> parse_delta_script(const std::string& text);

/// Read and parse a delta script file; ConfigError on unreadable paths.
std::vector<DeltaOp> read_delta_script_file(const std::string& path);

}  // namespace hipo::opt
