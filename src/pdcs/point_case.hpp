// PDCS extraction for the point case (Algorithm 1).
//
// With the charger's position fixed, rotate it through 360°: the devices a
// type-q charger at p can possibly cover contribute orientation intervals
// [θ_j − α_q/2, θ_j + α_q/2] (SectorRing::covering_orientations). Every
// maximal covered set is attained at an orientation where some device is
// about to fall out of the clockwise boundary — i.e. at an interval end —
// so sweeping interval ends extracts all PDCSs at p.
//
// Everything in Eq. (1) except the charger's own sector test depends only on
// the position, so the sweep gates each pool device once into a device
// table (range, receiver sector, line of sight, bearing, ring power) and
// each orientation then costs two angle comparisons per table row. At one
// position every candidate shares the charger type and the per-device power,
// so Definition 4.1 dominance reduces to set inclusion of covered sets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/geometry/vec2.hpp"
#include "src/model/los_cache.hpp"
#include "src/model/scenario.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::pdcs {

/// The rows a sweep emits: their covered sets in flat form, carrying the
/// ids the caller gave the pool devices, and each row's strategy (parallel
/// to cover.rows).
struct SweepArena {
  CoverRows cover;
  std::vector<model::Strategy> strategies;

  std::size_t size() const { return strategies.size(); }
  void clear();
  /// Row r as a Candidate; an id k stands for device `devices[k]`.
  Candidate candidate(std::size_t r,
                      std::span<const std::size_t> devices) const;
};

/// Algorithm 1 with reusable per-position scratch: a task that sweeps many
/// positions (extract_device_task) allocates nothing per position once its
/// buffers have grown, and the sweep tallies the rows into and out of its
/// point-local dominance filter. Not thread-safe; one per task.
class PointSweep {
 public:
  /// One pool device that a type-q charger at the gated position covers
  /// under some orientation.
  struct DeviceRow {
    std::size_t device;
    /// The caller's id for `device` (parallel entry of `ids`).
    std::uint32_t id;
    /// Raw bearing (device − position).angle(), in (−π, π].
    double bearing;
    /// norm_angle(bearing), in [0, 2π).
    double theta;
    /// Angular slack of the charger-sector test at this distance.
    double ang_eps;
    /// Ring power approx_power_from_distance(q, device, d).
    double power;
  };

  /// The scenario (and `cache`, if any) must outlive the sweep. With
  /// `cache`, line-of-sight verdicts are memoized (results identical).
  explicit PointSweep(const model::Scenario& scenario,
                      model::LosCache* cache = nullptr)
      : scenario_(&scenario), cache_(cache) {}

  /// The device table at `pos`: every device of `pool` (ascending), in pool
  /// order, that passes all Eq. (1) conditions except the charger's sector
  /// angle. `ids` is parallel to `pool`. Valid until the next call.
  std::span<const DeviceRow> gate(std::size_t charger_type, geom::Vec2 pos,
                                  std::span<const std::size_t> pool,
                                  std::span<const std::uint32_t> ids);

  /// Appends the rows of extract_point_case(scenario, charger_type, pos,
  /// pool) to `out`, in the same order, with covered devices written as
  /// their `ids` entries. Ids must rise with the pool's device indices.
  void run(std::size_t charger_type, geom::Vec2 pos,
           std::span<const std::size_t> pool,
           std::span<const std::uint32_t> ids, SweepArena& out);

  /// Non-empty orientation rows swept, and maximal sets emitted, by run().
  std::uint64_t orientations() const { return orientations_; }
  std::uint64_t rows_kept() const { return rows_kept_; }

 private:
  struct OrientationSet {
    std::size_t size;
    double total_power;
    std::size_t orientation;
    std::size_t mask;  // offset into masks_
  };

  const model::Scenario* scenario_;
  model::LosCache* cache_;
  std::vector<DeviceRow> rows_;
  std::vector<double> orientations_at_;
  std::vector<std::uint64_t> masks_;
  std::vector<OrientationSet> sets_;
  std::vector<std::size_t> kept_;
  std::uint64_t orientations_ = 0;
  std::uint64_t rows_kept_ = 0;
};

/// Devices a type-q charger at `pos` could cover under SOME orientation:
/// all Eq. (1) conditions except the charger's own sector-angle condition.
/// With `cache`, line-of-sight verdicts are memoized (results identical).
std::vector<std::size_t> orientable_covers(const model::Scenario& scenario,
                                           std::size_t charger_type,
                                           geom::Vec2 pos,
                                           std::span<const std::size_t> pool,
                                           model::LosCache* cache = nullptr);

/// Algorithm 1 at position `pos`: one candidate per maximal covered set,
/// restricted to the device pool (ascending indices — pass all device
/// indices for the exact algorithm; Algorithm 4 passes a neighbor set).
/// Candidates carry the approximated (ring) powers. Dominated candidates at
/// this point are already filtered: survivors are the maximal covered sets
/// (the lowest orientation among equal sets), ordered by size descending,
/// total power descending, then orientation — the order filter_dominated
/// returns. Returns an empty vector if nothing is coverable or `pos` is not
/// a feasible charger position. Line of sight is traced once per pool
/// device; with `cache` the verdict goes through the memo instead (results
/// identical). Extraction passes no cache: each position is gated once, so
/// the memo rarely hits.
std::vector<Candidate> extract_point_case(const model::Scenario& scenario,
                                          std::size_t charger_type,
                                          geom::Vec2 pos,
                                          std::span<const std::size_t> pool,
                                          model::LosCache* cache = nullptr);

}  // namespace hipo::pdcs
