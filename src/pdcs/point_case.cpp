#include "src/pdcs/point_case.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/geometry/angles.hpp"
#include "src/util/error.hpp"

namespace hipo::pdcs {

using geom::Vec2;
using model::Strategy;

namespace {

/// Ids 0..n-1: each pool entry stands for itself (its index in the pool).
std::vector<std::uint32_t> pool_positions(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  return ids;
}

}  // namespace

void SweepArena::clear() {
  cover.clear();
  strategies.clear();
}

Candidate SweepArena::candidate(std::size_t r,
                                std::span<const std::size_t> devices) const {
  const CoverRows::Row& row = cover.rows[r];
  Candidate cand;
  cand.strategy = strategies[r];
  cand.covered.reserve(row.count);
  for (std::uint32_t k = 0; k < row.count; ++k) {
    cand.covered.push_back(devices[cover.ids[row.offset + k]]);
  }
  cand.powers.assign(cover.powers.begin() + row.offset,
                     cover.powers.begin() + row.offset + row.count);
  return cand;
}

PointSweep::PointSweep(const model::Scenario& scenario,
                       model::LosCache* cache)
    : scenario_(&scenario), cache_(cache) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < scenario.num_device_types(); ++t) {
    const double angle = scenario.device_type(t).angle;
    const double h = angle / 2.0;
    const double h_reject = h + kDelta;
    // A full circle has no receiver test: c = −0 > −∞ passes. cos is
    // monotone only on [0, π]: no fast reject past it.
    type_pass_.push_back(angle >= geom::kTwoPi ? -kInf : std::cos(h) + kTau);
    type_reject_.push_back(angle < geom::kTwoPi && h_reject < geom::kPi
                               ? std::cos(h_reject) - kTau
                               : -kInf);
  }
}

void PointSweep::bind(std::span<const std::size_t> devices) {
  const model::Scenario& scenario = *scenario_;
  devices_.assign(devices.begin(), devices.end());
  xs_.clear();
  ys_.clear();
  ux_.clear();
  uy_.clear();
  cos_pass_.clear();
  cos_reject_.clear();
  for (std::size_t j : devices) {
    const auto& dev = scenario.device(j);
    const bool full = scenario.device_type(dev.type).angle >= geom::kTwoPi;
    xs_.push_back(dev.pos.x);
    ys_.push_back(dev.pos.y);
    if (full || std::abs(dev.orientation) <= kMaxOrientation) {
      ux_.push_back(full ? 0.0 : std::cos(dev.orientation));
      uy_.push_back(full ? 0.0 : std::sin(dev.orientation));
      cos_pass_.push_back(type_pass_[dev.type]);
      cos_reject_.push_back(type_reject_[dev.type]);
    } else {
      // Outside the range kAngleErr covers: the receiver test runs exactly.
      ux_.push_back(0.0);
      uy_.push_back(0.0);
      cos_pass_.push_back(std::numeric_limits<double>::infinity());
      cos_reject_.push_back(-std::numeric_limits<double>::infinity());
    }
  }
}

double PointSweep::d_min_reject(std::size_t charger_type) const {
  // The 1e-9 covers the rounding of sqrt(norm2) against hypot and of the
  // thresholds for d_min up to 1e6.
  const double d_min = scenario_->charger_type(charger_type).d_min;
  return d_min <= 1e6 ? d_min - geom::kCoverEps - 1e-9
                      : -std::numeric_limits<double>::infinity();
}

inline PointSweep::Verdict PointSweep::verdict(Vec2 so, std::uint32_t id,
                                               double d_min_reject) const {
  const double df = std::sqrt(so.norm2());
  if (df < d_min_reject) return Verdict::kReject;
  if (!(df > kExactBelow)) return Verdict::kExact;
  // c = cos of the angle between the device's axis and the direction to
  // the charger, the angle the exact test computes with atan2.
  const double c = -(so.x * ux_[id] + so.y * uy_[id]) / df;
  if (c < cos_reject_[id]) return Verdict::kReject;
  return c > cos_pass_[id] ? Verdict::kPass : Verdict::kExact;
}

PointSweep::Verdict PointSweep::prefilter(std::size_t charger_type, Vec2 pos,
                                          std::uint32_t id) const {
  HIPO_ASSERT(id < devices_.size());
  return verdict({xs_[id] - pos.x, ys_[id] - pos.y}, id,
                 d_min_reject(charger_type));
}

std::span<const PointSweep::DeviceRow> PointSweep::gate(
    std::size_t charger_type, Vec2 pos, std::span<const std::uint32_t> ids) {
  const model::Scenario& scenario = *scenario_;
  const auto& ct = scenario.charger_type(charger_type);
  const double d_min_fast = d_min_reject(charger_type);
  std::uint64_t fast = 0, exact = 0;
  rows_.clear();
  for (const std::uint32_t id : ids) {
    HIPO_ASSERT(id < devices_.size());
    const Vec2 so{xs_[id] - pos.x, ys_[id] - pos.y};
    const Verdict v = verdict(so, id, d_min_fast);
    fast += v != Verdict::kExact ? 1 : 0;
    if (v == Verdict::kReject) continue;
    // The exact Eq. (1) gate, minus the receiver test a kPass decided.
    const std::size_t j = devices_[id];
    const double d = so.norm();
    if (d < ct.d_min - geom::kCoverEps || d > ct.d_max + geom::kCoverEps)
      continue;
    if (d <= geom::kEps) continue;  // coincident positions: undefined angles
    const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
    if (v == Verdict::kExact) {
      const auto& dev = scenario.device(j);
      const double recv_angle = scenario.device_type(dev.type).angle;
      if (recv_angle < geom::kTwoPi) {
        ++exact;
        const double chg_angle =
            geom::angle_distance((-so).angle(), dev.orientation);
        if (chg_angle > recv_angle / 2.0 + ang_eps) continue;
      }
    }
    const bool los = cache_ != nullptr
                         ? cache_->line_of_sight(pos, j)
                         : scenario.line_of_sight(pos, {xs_[id], ys_[id]});
    if (!los) continue;
    const double bearing = so.angle();
    rows_.push_back({j, id, bearing, geom::fold_angle(bearing), ang_eps,
                     scenario.approx_power_from_distance(charger_type, j, d)});
  }
  gate_pairs_ += ids.size();
  gate_fast_ += fast;
  gate_exact_ += exact;
  return rows_;
}

void PointSweep::run(std::size_t charger_type, Vec2 pos,
                     std::span<const std::uint32_t> ids, SweepArena& out) {
  gate(charger_type, pos, ids);
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
      orientations_at_.push_back(geom::fold_angle(row.theta + alpha / 2.0));
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
  // covered) order, as filter_dominated does. θ − φ lies in (−2π, 2π) and
  // bearing − φ in [−3π, π], so both distances fold without fmod.
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
          (geom::folded_angle_distance(row.theta, phi) > half + 1e-9 ||
           geom::folded_angle_distance(row.bearing, phi) >
               half + row.ang_eps))
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

    out.strategies.push_back(
        Strategy{pos, orientations_at_[sets_[s].orientation], charger_type});
    out.cover.begin_row();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if ((mask[r / 64] >> (r % 64)) & 1) {
        out.cover.push(rows_[r].id, rows_[r].power);
      }
    }
  }
  rows_kept_ += kept_.size();
}

std::vector<std::size_t> orientable_covers(const model::Scenario& scenario,
                                           std::size_t charger_type,
                                           Vec2 pos,
                                           std::span<const std::size_t> pool,
                                           model::LosCache* cache) {
  PointSweep sweep(scenario, cache);
  sweep.bind(pool);
  std::vector<std::size_t> out;
  for (const auto& row :
       sweep.gate(charger_type, pos, pool_positions(pool.size()))) {
    out.push_back(row.device);
  }
  return out;
}

std::vector<Candidate> extract_point_case(const model::Scenario& scenario,
                                          std::size_t charger_type, Vec2 pos,
                                          std::span<const std::size_t> pool,
                                          model::LosCache* cache) {
  std::vector<Candidate> out;
  if (!scenario.position_feasible(pos)) return out;
  PointSweep sweep(scenario, cache);
  sweep.bind(pool);
  SweepArena arena;
  sweep.run(charger_type, pos, pool_positions(pool.size()), arena);
  out.reserve(arena.size());
  for (std::size_t r = 0; r < arena.size(); ++r) {
    out.push_back(arena.candidate(r, pool));
  }
  return out;
}

}  // namespace hipo::pdcs
