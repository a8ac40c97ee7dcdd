// Reference PDCS extraction for identity tests: the per-task extraction as
// it ran before the task-scoped rewrite, kept verbatim apart from the sweep
// call. Each position queries its own pool from the grid index, the
// position constructions dedup through a fresh hash set per pair, and the
// per-task filter is the pointer-sort dominance filter over heap
// Candidates with one CoverageMask per row. The production path must match
// it byte for byte.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/geometry/angles.hpp"
#include "src/geometry/circle.hpp"
#include "src/model/scenario.hpp"
#include "src/pdcs/candidate.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/error.hpp"

namespace hipo::pdcs::ref {

/// Byte-level comparison: strategy bits, covered lists, power bits, order.
/// Empty when identical, else what differs first.
inline std::string first_difference(const std::vector<Candidate>& got,
                                    const std::vector<Candidate>& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto& a = got[k];
    const auto& b = want[k];
    if (bits(a.strategy.pos.x) != bits(b.strategy.pos.x) ||
        bits(a.strategy.pos.y) != bits(b.strategy.pos.y) ||
        bits(a.strategy.orientation) != bits(b.strategy.orientation) ||
        a.strategy.type != b.strategy.type) {
      return "strategy of candidate " + std::to_string(k);
    }
    if (a.covered != b.covered) {
      return "covered of candidate " + std::to_string(k);
    }
    if (a.powers.size() != b.powers.size()) {
      return "powers of candidate " + std::to_string(k);
    }
    for (std::size_t i = 0; i < a.powers.size(); ++i) {
      if (bits(a.powers[i]) != bits(b.powers[i])) {
        return "power bits of candidate " + std::to_string(k);
      }
    }
  }
  return {};
}

// --- Dominance filter --------------------------------------------------------

/// Bitmask over device indices for fast subset tests.
class CoverageMask {
 public:
  explicit CoverageMask(std::size_t num_devices)
      : words_((num_devices + 63) / 64, 0) {}

  void set(std::size_t j) {
    HIPO_ASSERT(j / 64 < words_.size());
    words_[j / 64] |= std::uint64_t{1} << (j % 64);
  }

  bool test(std::size_t j) const {
    if (j / 64 >= words_.size()) return false;
    return (words_[j / 64] >> (j % 64)) & 1;
  }

  bool is_subset_of(const CoverageMask& other) const {
    HIPO_ASSERT(words_.size() == other.words_.size());
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] & ~other.words_[w]) return false;
    }
    return true;
  }

  std::size_t count() const {
    std::size_t total = 0;
    for (auto w : words_) {
      total += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return total;
  }

 private:
  std::vector<std::uint64_t> words_;
};

inline std::vector<std::size_t> filter_dominated_indices(
    std::span<const Candidate* const> candidates, std::size_t num_devices) {
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> total_power(candidates.size(), 0.0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    HIPO_ASSERT(candidates[i] != nullptr);
    for (double p : candidates[i]->powers) total_power[i] += p;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (candidates[x]->covered.size() != candidates[y]->covered.size())
      return candidates[x]->covered.size() > candidates[y]->covered.size();
    if (total_power[x] != total_power[y]) return total_power[x] > total_power[y];
    return x < y;
  });

  std::vector<std::size_t> universe;
  for (const Candidate* c : candidates) {
    universe.insert(universe.end(), c->covered.begin(), c->covered.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  const auto local_id = [&](std::size_t j) {
    HIPO_ASSERT(j < num_devices);
    return static_cast<std::size_t>(
        std::lower_bound(universe.begin(), universe.end(), j) -
        universe.begin());
  };

  std::vector<std::size_t> kept;
  std::vector<CoverageMask> kept_masks;
  std::vector<std::vector<std::uint32_t>> kept_by_device(universe.size());
  std::vector<std::size_t> local;
  for (std::size_t idx : order) {
    const Candidate& cand = *candidates[idx];
    if (cand.covers_nothing()) continue;
    local.clear();
    for (std::size_t j : cand.covered) local.push_back(local_id(j));
    CoverageMask mask(universe.size());
    for (std::size_t j : local) mask.set(j);
    std::size_t rarest = local.front();
    for (std::size_t j : local) {
      if (kept_by_device[j].size() < kept_by_device[rarest].size()) rarest = j;
    }
    bool dominated = false;
    for (std::uint32_t k : kept_by_device[rarest]) {
      if (!mask.is_subset_of(kept_masks[k])) continue;
      if (dominated_by(cand, *candidates[kept[k]])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      const auto id = static_cast<std::uint32_t>(kept.size());
      for (std::size_t j : local) kept_by_device[j].push_back(id);
      kept.push_back(idx);
      kept_masks.push_back(std::move(mask));
    }
  }
  return kept;
}

inline std::vector<Candidate> filter_dominated(
    std::vector<Candidate> candidates, std::size_t num_devices) {
  std::vector<const Candidate*> ptrs;
  ptrs.reserve(candidates.size());
  for (const auto& c : candidates) ptrs.push_back(&c);
  const std::vector<std::size_t> kept_idx =
      ref::filter_dominated_indices(ptrs, num_devices);
  std::vector<Candidate> kept;
  kept.reserve(kept_idx.size());
  for (std::size_t idx : kept_idx) kept.push_back(std::move(candidates[idx]));
  return kept;
}

// --- Candidate positions -----------------------------------------------------

class PositionSink {
 public:
  PositionSink(const model::Scenario& scenario, geom::Vec2 anchor_a,
               geom::Vec2 anchor_b, double range)
      : scenario_(scenario), a_(anchor_a), b_(anchor_b), range_(range) {}

  void add(geom::Vec2 p) {
    if (geom::distance(p, a_) > range_ + geom::kCoverEps &&
        geom::distance(p, b_) > range_ + geom::kCoverEps)
      return;
    if (!scenario_.position_feasible(p)) return;
    const auto key = quantize(p);
    if (seen_.insert(key).second) positions_.push_back(p);
  }

  void add_all(const std::vector<geom::Vec2>& ps) {
    for (geom::Vec2 p : ps) add(p);
  }

  std::vector<geom::Vec2> take() { return std::move(positions_); }

 private:
  static std::uint64_t quantize(geom::Vec2 p) {
    const auto qx = static_cast<std::int64_t>(std::llround(p.x * 1e6));
    const auto qy = static_cast<std::int64_t>(std::llround(p.y * 1e6));
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(qx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(qy));
  }

  const model::Scenario& scenario_;
  geom::Vec2 a_;
  geom::Vec2 b_;
  double range_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<geom::Vec2> positions_;
};

inline geom::BBox anchor_box(geom::Vec2 a, geom::Vec2 b, double range) {
  geom::BBox box;
  box.lo = {std::min(a.x, b.x) - range, std::min(a.y, b.y) - range};
  box.hi = {std::max(a.x, b.x) + range, std::max(a.y, b.y) + range};
  return box;
}

inline std::vector<geom::Segment> nearby_obstacle_edges(
    const model::Scenario& scenario, geom::Vec2 a, geom::Vec2 b,
    double range) {
  const auto& index = scenario.obstacle_index();
  std::vector<geom::Segment> edges;
  for (std::size_t pi : index.polygons_in_box(anchor_box(a, b, range))) {
    const auto& h = index.polygons()[pi];
    for (std::size_t e = 0; e < h.size(); ++e) {
      const geom::Segment seg = h.edge(e);
      if (geom::point_segment_distance(a, seg) <= range ||
          geom::point_segment_distance(b, seg) <= range) {
        edges.push_back(seg);
      }
    }
  }
  return edges;
}

inline std::vector<geom::Vec2> pair_candidate_positions(
    const model::Scenario& scenario, std::size_t q, std::size_t i,
    std::size_t j, const ExtractOptions& opt) {
  using geom::Circle;
  using geom::Segment;
  using geom::Vec2;
  const Vec2 oi = scenario.device(i).pos;
  const Vec2 oj = scenario.device(j).pos;
  const auto& ct = scenario.charger_type(q);
  PositionSink sink(scenario, oi, oj, ct.d_max);

  const std::vector<double> ri = ring_radii(scenario, q, i);
  const std::vector<double> rj = ring_radii(scenario, q, j);
  const auto edges = nearby_obstacle_edges(scenario, oi, oj, ct.d_max);

  std::vector<Circle> circles;
  circles.reserve(ri.size() + rj.size());
  for (double r : ri)
    if (r > geom::kEps) circles.emplace_back(oi, r);
  for (double r : rj)
    if (r > geom::kEps) circles.emplace_back(oj, r);

  if (opt.use_ring_ring) {
    for (double r1 : ri) {
      if (r1 <= geom::kEps) continue;
      for (double r2 : rj) {
        if (r2 <= geom::kEps) continue;
        sink.add_all(
            geom::circle_circle_intersections(Circle(oi, r1), Circle(oj, r2)));
      }
    }
  }

  if (opt.use_pair_line) {
    const Vec2 dir = oj - oi;
    if (dir.norm() > geom::kEps) {
      for (const Circle& c : circles) {
        sink.add_all(geom::circle_line_intersections(c, oi, dir));
      }
      for (const Segment& e : edges) {
        sink.add_all(geom::line_segment_intersections(oi, dir, e));
      }
    }
  }

  if (opt.use_pair_arcs && ct.angle < geom::kPi - 1e-9) {
    const double chord = geom::distance(oi, oj);
    if (chord > geom::kEps) {
      for (const Circle& arc :
           geom::inscribed_angle_circles(oi, oj, ct.angle)) {
        for (const Circle& c : circles) {
          sink.add_all(geom::circle_circle_intersections(arc, c));
        }
        for (const Segment& e : edges) {
          sink.add_all(geom::circle_segment_intersections(arc, e));
        }
      }
      if (opt.arc_samples > 0) {
        sink.add_all(geom::inscribed_angle_arc_points(oi, oj, ct.angle,
                                                      opt.arc_samples));
      }
    }
  }

  if (opt.use_obstacle_ring) {
    for (const Circle& c : circles) {
      for (const Segment& e : edges) {
        sink.add_all(geom::circle_segment_intersections(c, e));
      }
    }
    const auto& index = scenario.obstacle_index();
    for (std::size_t pi :
         index.polygons_in_box(anchor_box(oi, oj, ct.d_max))) {
      const auto& h = index.polygons()[pi];
      for (const Vec2& v : h.vertices()) {
        for (int anchor = 0; anchor < 2; ++anchor) {
          const Vec2 o = anchor == 0 ? oi : oj;
          const auto& radii = anchor == 0 ? ri : rj;
          const Vec2 dir = v - o;
          const double dist = dir.norm();
          if (dist <= geom::kEps || dist > ct.d_max) continue;
          const Vec2 u = dir / dist;
          for (double r : radii) {
            if (r > dist) sink.add(o + u * r);
          }
        }
      }
    }
  }

  return sink.take();
}

inline std::vector<geom::Vec2> singleton_candidate_positions(
    const model::Scenario& scenario, std::size_t q, std::size_t i,
    const ExtractOptions& opt) {
  using geom::Vec2;
  const auto& dev = scenario.device(i);
  const auto& ct = scenario.charger_type(q);
  PositionSink sink(scenario, dev.pos, dev.pos, ct.d_max);

  const double alpha_o = scenario.device_type(dev.type).angle;
  const int n_az = std::max(2, opt.singleton_azimuths);
  std::vector<double> dirs;
  if (alpha_o >= geom::kTwoPi) {
    for (int k = 0; k < n_az; ++k) {
      dirs.push_back(geom::kTwoPi * static_cast<double>(k) / n_az);
    }
  } else {
    const double start = dev.orientation - alpha_o / 2.0;
    for (int k = 0; k < n_az; ++k) {
      dirs.push_back(start + alpha_o * static_cast<double>(k) / (n_az - 1));
    }
  }
  const auto& index = scenario.obstacle_index();
  for (std::size_t pi :
       index.polygons_in_box(anchor_box(dev.pos, dev.pos, ct.d_max))) {
    for (const Vec2& v : index.polygons()[pi].vertices()) {
      const double dist = geom::distance(v, dev.pos);
      if (dist > geom::kEps && dist <= ct.d_max) {
        dirs.push_back((v - dev.pos).angle());
      }
    }
  }

  for (double r : ring_radii(scenario, q, i)) {
    if (r <= geom::kEps) continue;
    for (double a : dirs) {
      sink.add(dev.pos + geom::unit_vector(a) * r);
    }
  }
  return sink.take();
}

// --- Per-device task ---------------------------------------------------------

/// The task with one query_radius pool per position. The only change from
/// the original is the sweep call: extract_point_case per position in place
/// of a reused sweep appending to the type's vector (the same rows, as
/// PointSweep.ReusedSweepMatchesFreshCallsAndTallies checks).
inline std::vector<Candidate> extract_device_task(
    const model::Scenario& scenario, const spatial::GridIndex& devices,
    std::size_t i, const ExtractOptions& opt) {
  using geom::Vec2;
  std::vector<Candidate> out;
  const Vec2 oi = scenario.device(i).pos;

  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    const auto& ct = scenario.charger_type(q);
    const auto neighbors = devices.query_radius(oi, 2.0 * ct.d_max);

    std::vector<Vec2> positions;
    if (opt.use_singleton) {
      auto single = ref::singleton_candidate_positions(scenario, q, i, opt);
      positions.insert(positions.end(), single.begin(), single.end());
    }
    for (std::size_t j : neighbors) {
      if (j <= i) continue;
      auto pts = ref::pair_candidate_positions(scenario, q, i, j, opt);
      positions.insert(positions.end(), pts.begin(), pts.end());
    }

    std::vector<Candidate> type_candidates;
    for (Vec2 p : positions) {
      const auto pool = devices.query_radius(p, ct.d_max + geom::kCoverEps);
      for (auto& c : extract_point_case(scenario, q, p, pool)) {
        type_candidates.push_back(std::move(c));
      }
    }
    auto filtered = ref::filter_dominated(std::move(type_candidates),
                                          scenario.num_devices());
    for (auto& c : filtered) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace hipo::pdcs::ref
