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
///
/// The sweep works on bound devices: bind() names them once (a task binds
/// its neighbourhood per charger type) and gate()/run() take ids into them.
/// bind() also builds each device's receiver prefilter, a cosine test that
/// decides most pairs without atan2 or hypot; every pair it cannot decide
/// takes the exact Eq. (1) path, so results are those of the exact gate.
class PointSweep {
 public:
  /// One pool device that a type-q charger at the gated position covers
  /// under some orientation.
  struct DeviceRow {
    std::size_t device;
    /// The id the device was gated under.
    std::uint32_t id;
    /// Raw bearing (device − position).angle(), in [−π, π].
    double bearing;
    /// norm_angle(bearing), in [0, 2π).
    double theta;
    /// Angular slack of the charger-sector test at this distance.
    double ang_eps;
    /// Ring power approx_power_from_distance(q, device, d).
    double power;
  };

  /// What the prefilter decides for one (position, device) pair.
  enum class Verdict : std::uint8_t {
    kReject,  ///< the exact gate rejects it (d_min or receiver sector)
    kPass,    ///< the exact receiver-sector test passes
    kExact,   ///< undecided: the exact tests run
  };

  /// Prefilter margins (docs/ALGORITHMS.md, "A cheap gate for the point
  /// sweep"): the fast reject needs the receiver angle past h + kDelta,
  /// both cosine tests clear their threshold by kTau, and kAngleErr bounds
  /// the rounding of the exact test's angle for orientations up to
  /// kMaxOrientation in magnitude (devices beyond it always go exact).
  static constexpr double kDelta = 1e-6;
  static constexpr double kTau = 1e-12;
  static constexpr double kAngleErr = 1e-13;
  static constexpr double kMaxOrientation = 64.0;
  /// Pairs this close (kCoverEps/(δ − ε)) always take the exact path: below
  /// it the exact test's slack kCoverEps/d can exceed the reject margin.
  static constexpr double kExactBelow = geom::kCoverEps / (kDelta - kAngleErr);

  /// The scenario (and `cache`, if any) must outlive the sweep. With
  /// `cache`, line-of-sight verdicts are memoized (results identical).
  /// Builds the cosine thresholds of each device type.
  explicit PointSweep(const model::Scenario& scenario,
                      model::LosCache* cache = nullptr);

  /// Binds the devices that later ids name: id k stands for devices[k]
  /// until the next bind. Builds each device's position, unit receiving
  /// axis and cosine thresholds once, for every position gated after.
  void bind(std::span<const std::size_t> devices);

  /// The prefilter's verdict for bound device `id` and a type-q charger at
  /// `pos`, as gate() makes it.
  Verdict prefilter(std::size_t charger_type, geom::Vec2 pos,
                    std::uint32_t id) const;

  /// The device table at `pos`: every bound device named in `ids`, in
  /// `ids` order, that passes all Eq. (1) conditions except the charger's
  /// sector angle. Valid until the next call.
  std::span<const DeviceRow> gate(std::size_t charger_type, geom::Vec2 pos,
                                  std::span<const std::uint32_t> ids);

  /// Appends the rows of extract_point_case(scenario, charger_type, pos,
  /// pool) to `out`, in the same order, where `pool` is the bound devices
  /// that `ids` name and covered devices are written as their ids. Ids must
  /// rise with the devices' indices. `pos` must be a feasible charger
  /// position: the sweep does not test it (extract_point_case does).
  void run(std::size_t charger_type, geom::Vec2 pos,
           std::span<const std::uint32_t> ids, SweepArena& out);

  /// Non-empty orientation rows swept, and maximal sets emitted, by run().
  std::uint64_t orientations() const { return orientations_; }
  std::uint64_t rows_kept() const { return rows_kept_; }
  /// Pairs gated; pairs the prefilter decided; pairs whose receiver sector
  /// took the exact (atan2) test.
  std::uint64_t gate_pairs() const { return gate_pairs_; }
  std::uint64_t gate_fast_decisions() const { return gate_fast_; }
  std::uint64_t gate_exact_checks() const { return gate_exact_; }

 private:
  struct OrientationSet {
    std::size_t size;
    double total_power;
    std::size_t orientation;
    std::size_t mask;  // offset into masks_
  };

  Verdict verdict(geom::Vec2 so, std::uint32_t id,
                  double d_min_reject) const;
  double d_min_reject(std::size_t charger_type) const;

  const model::Scenario* scenario_;
  model::LosCache* cache_;
  // Per device type: the cosine thresholds of the fast pass and the fast
  // reject (they depend only on the receiving angle).
  std::vector<double> type_pass_;
  std::vector<double> type_reject_;
  // The bound devices, by id: index, position, unit receiving axis, and
  // the cosine thresholds of the fast pass and the fast reject.
  std::vector<std::size_t> devices_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> ux_;
  std::vector<double> uy_;
  std::vector<double> cos_pass_;
  std::vector<double> cos_reject_;
  std::vector<DeviceRow> rows_;
  std::vector<double> orientations_at_;
  std::vector<std::uint64_t> masks_;
  std::vector<OrientationSet> sets_;
  std::vector<std::size_t> kept_;
  std::uint64_t orientations_ = 0;
  std::uint64_t rows_kept_ = 0;
  std::uint64_t gate_pairs_ = 0;
  std::uint64_t gate_fast_ = 0;
  std::uint64_t gate_exact_ = 0;
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
