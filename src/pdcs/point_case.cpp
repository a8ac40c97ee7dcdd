#include "src/pdcs/point_case.hpp"

#include <algorithm>
#include <cmath>

#include "src/geometry/angles.hpp"

namespace hipo::pdcs {

using geom::Vec2;
using model::Strategy;

std::span<const PointSweep::DeviceRow> PointSweep::gate(
    std::size_t charger_type, Vec2 pos, std::span<const std::size_t> pool) {
  const model::Scenario& scenario = *scenario_;
  const auto& ct = scenario.charger_type(charger_type);
  rows_.clear();
  for (std::size_t j : pool) {
    const auto& dev = scenario.device(j);
    const Vec2 so = dev.pos - pos;
    const double d = so.norm();
    if (d < ct.d_min - geom::kCoverEps || d > ct.d_max + geom::kCoverEps)
      continue;
    if (d <= geom::kEps) continue;  // coincident positions: undefined angles
    const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
    const double recv_angle = scenario.device_type(dev.type).angle;
    if (recv_angle < geom::kTwoPi) {
      const double chg_angle =
          geom::angle_distance((-so).angle(), dev.orientation);
      if (chg_angle > recv_angle / 2.0 + ang_eps) continue;
    }
    const bool los = cache_ != nullptr ? cache_->line_of_sight(pos, j)
                                       : scenario.line_of_sight(pos, dev.pos);
    if (!los) continue;
    const double bearing = so.angle();
    rows_.push_back({j, bearing, geom::norm_angle(bearing), ang_eps,
                     scenario.approx_power_from_distance(charger_type, j, d)});
  }
  return rows_;
}

void PointSweep::run(std::size_t charger_type, Vec2 pos,
                     std::span<const std::size_t> pool,
                     std::vector<Candidate>& out) {
  if (!scenario_->position_feasible(pos)) return;
  gate(charger_type, pos, pool);
  if (rows_.empty()) return;

  const double alpha = scenario_->charger_type(charger_type).angle;
  const bool full_circle = alpha >= geom::kTwoPi;

  // Candidate orientations: for each device, the orientation at which it is
  // about to fall out of the *clockwise* boundary when rotating CCW — that
  // is φ = θ_j + α/2 (the covering interval's end). A full-circle charger
  // has a single orientation class.
  orientations_at_.clear();
  if (full_circle) {
    orientations_at_.push_back(0.0);
  } else {
    for (const DeviceRow& row : rows_) {
      orientations_at_.push_back(geom::norm_angle(row.theta + alpha / 2.0));
    }
    std::sort(orientations_at_.begin(), orientations_at_.end());
    orientations_at_.erase(
        std::unique(orientations_at_.begin(), orientations_at_.end(),
                    [](double a, double b) { return std::abs(a - b) <= 1e-12; }),
        orientations_at_.end());
  }

  // Covered set per orientation, as a bitmask over table rows. A device is
  // covered iff θ_j is within α/2 of φ (boundary inclusive: the device
  // "about to fall out" still counts, matching Algorithm 1) and the
  // charger-sector test of Eq. (1) passes on its raw bearing — the only
  // orientation-dependent Eq. (1) condition. Total power sums in row (=
  // covered) order, as filter_dominated does.
  const std::size_t words = (rows_.size() + 63) / 64;
  const double half = alpha / 2.0;
  masks_.assign(orientations_at_.size() * words, 0);
  sets_.clear();
  for (std::size_t o = 0; o < orientations_at_.size(); ++o) {
    const double phi = orientations_at_[o];
    std::uint64_t* mask = masks_.data() + sets_.size() * words;
    std::size_t size = 0;
    double total = 0.0;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const DeviceRow& row = rows_[r];
      if (!full_circle &&
          (geom::angle_distance(row.theta, phi) > half + 1e-9 ||
           geom::angle_distance(row.bearing, phi) > half + row.ang_eps))
        continue;
      if (!(row.power > 0.0)) continue;
      mask[r / 64] |= std::uint64_t{1} << (r % 64);
      ++size;
      total += row.power;
    }
    if (size != 0) sets_.push_back({size, total, o, sets_.size() * words});
  }
  orientations_ += sets_.size();

  // Point-local dominance. Every set here shares the position, the charger
  // type and each device's power, so dominated_by(a, b) is exactly
  // covered(a) ⊆ covered(b) — transitive, so testing against the kept sets
  // only is enough. In filter_dominated's order (size and total power
  // descending, then input index) the survivors are the maximal sets, the
  // first orientation of each.
  std::sort(sets_.begin(), sets_.end(),
            [](const OrientationSet& a, const OrientationSet& b) {
              if (a.size != b.size) return a.size > b.size;
              if (a.total_power != b.total_power)
                return a.total_power > b.total_power;
              return a.orientation < b.orientation;
            });
  kept_.clear();
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    const std::uint64_t* mask = masks_.data() + sets_[s].mask;
    const bool dominated =
        std::any_of(kept_.begin(), kept_.end(), [&](std::size_t k) {
          const std::uint64_t* other = masks_.data() + sets_[k].mask;
          for (std::size_t w = 0; w < words; ++w) {
            if (mask[w] & ~other[w]) return false;
          }
          return true;
        });
    if (dominated) continue;
    kept_.push_back(s);

    Candidate cand;
    cand.strategy =
        Strategy{pos, orientations_at_[sets_[s].orientation], charger_type};
    cand.covered.reserve(sets_[s].size);
    cand.powers.reserve(sets_[s].size);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if ((mask[r / 64] >> (r % 64)) & 1) {
        cand.covered.push_back(rows_[r].device);
        cand.powers.push_back(rows_[r].power);
      }
    }
    out.push_back(std::move(cand));
  }
  rows_kept_ += kept_.size();
}

std::vector<std::size_t> orientable_covers(const model::Scenario& scenario,
                                           std::size_t charger_type,
                                           Vec2 pos,
                                           std::span<const std::size_t> pool,
                                           model::LosCache* cache) {
  PointSweep sweep(scenario, cache);
  std::vector<std::size_t> out;
  for (const auto& row : sweep.gate(charger_type, pos, pool)) {
    out.push_back(row.device);
  }
  return out;
}

std::vector<Candidate> extract_point_case(const model::Scenario& scenario,
                                          std::size_t charger_type, Vec2 pos,
                                          std::span<const std::size_t> pool,
                                          model::LosCache* cache) {
  PointSweep sweep(scenario, cache);
  std::vector<Candidate> out;
  sweep.run(charger_type, pos, pool, out);
  return out;
}

}  // namespace hipo::pdcs
