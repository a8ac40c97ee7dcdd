#include "src/pdcs/candidate_gen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "src/geometry/angles.hpp"
#include "src/geometry/circle.hpp"
#include "src/obs/metrics.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/util/error.hpp"

namespace hipo::pdcs {

using geom::Circle;
using geom::Segment;
using geom::Vec2;

namespace {

/// Ring boundary radii of device j w.r.t. charger type q into `radii`.
void ring_radii_into(const model::Scenario& scenario, std::size_t q,
                     std::size_t j, std::vector<double>& radii) {
  const auto& lad = scenario.ladder_for_device(q, j);
  radii.clear();
  radii.push_back(lad.d_min());
  for (double r : lad.outer_radii()) radii.push_back(r);
}

/// Set of 64-bit keys with O(1) clear: open addressing over slots stamped
/// with a generation, so clearing bumps the generation and one table serves
/// every pair of a task.
class KeySet {
 public:
  void clear() {
    size_ = 0;
    if (++generation_ == 0) {
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

  bool contains(std::uint64_t key) const {
    if (slots_.empty()) return false;
    for (std::size_t h = home(key);; h = (h + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[h];
      if (slot.generation != generation_) return false;
      if (slot.key == key) return true;
    }
  }

  /// Inserts a key that is not in the set.
  void insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(key);
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t generation = 0;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  void place(std::uint64_t key) {
    std::size_t h = home(key);
    while (slots_[h].generation == generation_) {
      h = (h + 1) & (slots_.size() - 1);
    }
    slots_[h] = {key, generation_};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
    for (const Slot& slot : old) {
      if (slot.generation == generation_) place(slot.key);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t generation_ = 1;
};

/// Deduplicating position collector with feasibility and range filters. It
/// appends to a caller-owned buffer and is reset per construction (one pair
/// or one singleton), so its dedup set is per construction.
class PositionSink {
 public:
  explicit PositionSink(const model::Scenario& scenario)
      : scenario_(scenario) {}

  void reset(Vec2 anchor_a, Vec2 anchor_b, double range,
             std::vector<Vec2>& out) {
    a_ = anchor_a;
    b_ = anchor_b;
    range_ = range;
    out_ = &out;
    seen_.clear();
  }

  void add(Vec2 p) {
    if (geom::distance(p, a_) > range_ + geom::kCoverEps &&
        geom::distance(p, b_) > range_ + geom::kCoverEps)
      return;
    // Only feasible positions enter the set, and a seen key drops p whether
    // or not p is feasible, so testing the set first changes nothing but
    // skips the feasibility test for duplicates.
    const auto key = quantize(p);
    if (seen_.contains(key)) return;
    if (!scenario_.position_feasible(p)) return;
    seen_.insert(key);
    out_->push_back(p);
  }

  void add_all(const std::vector<Vec2>& ps) {
    for (Vec2 p : ps) add(p);
  }

 private:
  static std::uint64_t quantize(Vec2 p) {
    // ~1e-6 spatial resolution; duplicates closer than this behave
    // identically for coverage purposes. The two quantized coordinates are
    // packed into disjoint 32-bit lanes so distinct grid cells always get
    // distinct keys (a multiply-xor combine can collide and silently drop
    // candidate positions); 32 bits per lane covers |coords| < ~2147 m at
    // this resolution, far beyond the paper's O(100 m) scenarios.
    const auto qx = static_cast<std::int64_t>(std::llround(p.x * 1e6));
    const auto qy = static_cast<std::int64_t>(std::llround(p.y * 1e6));
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(qx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(qy));
  }

  const model::Scenario& scenario_;
  Vec2 a_;
  Vec2 b_;
  double range_ = 0.0;
  std::vector<Vec2>* out_ = nullptr;
  KeySet seen_;
};

/// Buffers of the position constructions, owned by one task (or one call of
/// the public wrappers) and reused across its pairs.
struct PositionScratch {
  explicit PositionScratch(const model::Scenario& scenario) : sink(scenario) {}

  PositionSink sink;
  /// ring_radii of the task's anchor i (set once per charger type).
  std::vector<double> ri;
  std::vector<double> rj;
  /// Singleton directions.
  std::vector<double> dirs;
  std::vector<std::size_t> polygons;
  std::vector<Segment> edges;
  std::vector<Circle> circles;
};

/// Axis-aligned box covering the disks of `range` around both anchors.
geom::BBox anchor_box(Vec2 a, Vec2 b, double range) {
  geom::BBox box;
  box.lo = {std::min(a.x, b.x) - range, std::min(a.y, b.y) - range};
  box.hi = {std::max(a.x, b.x) + range, std::max(a.y, b.y) + range};
  return box;
}

/// Obstacle edges of `polygons` (the obstacle index's hits for the anchor
/// box) within `range` of either anchor. The exact per-edge distance filter
/// (and hence the resulting edge list and its order) matches the full scan.
void nearby_obstacle_edges(const model::Scenario& scenario,
                           const std::vector<std::size_t>& polygons, Vec2 a,
                           Vec2 b, double range, std::vector<Segment>& edges) {
  const auto& index = scenario.obstacle_index();
  edges.clear();
  for (std::size_t pi : polygons) {
    const auto& h = index.polygons()[pi];
    for (std::size_t e = 0; e < h.size(); ++e) {
      const Segment seg = h.edge(e);
      if (geom::point_segment_distance(a, seg) <= range ||
          geom::point_segment_distance(b, seg) <= range) {
        edges.push_back(seg);
      }
    }
  }
}

/// pair_candidate_positions, appended to `out`; scratch.ri must hold
/// ring_radii(scenario, q, i).
void append_pair_positions(const model::Scenario& scenario, std::size_t q,
                           std::size_t i, std::size_t j,
                           const ExtractOptions& opt, PositionScratch& scratch,
                           std::vector<Vec2>& out) {
  const Vec2 oi = scenario.device(i).pos;
  const Vec2 oj = scenario.device(j).pos;
  const auto& ct = scenario.charger_type(q);
  PositionSink& sink = scratch.sink;
  sink.reset(oi, oj, ct.d_max, out);

  const std::vector<double>& ri = scratch.ri;
  std::vector<double>& rj = scratch.rj;
  ring_radii_into(scenario, q, j, rj);
  const auto& index = scenario.obstacle_index();
  scratch.polygons = index.polygons_in_box(anchor_box(oi, oj, ct.d_max));
  const std::vector<Segment>& edges = scratch.edges;
  nearby_obstacle_edges(scenario, scratch.polygons, oi, oj, ct.d_max,
                        scratch.edges);

  // Ring circles of both devices.
  std::vector<Circle>& circles = scratch.circles;
  circles.clear();
  for (double r : ri)
    if (r > geom::kEps) circles.emplace_back(oi, r);
  for (double r : rj)
    if (r > geom::kEps) circles.emplace_back(oj, r);

  // (a) Ring × ring intersections (Algorithm 4 step 9).
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

  // (b) The straight line through the pair (Algorithm 4 steps 3–5):
  // intersections with ring circles and with obstacle edges.
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

  // (c) Inscribed-angle arcs (Algorithm 4 steps 6–8): circles through the
  // pair seen under the charging angle α_q; intersect with ring circles and
  // obstacle edges, plus interior samples.
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

  // (d) Ring × obstacle-edge intersections and hole-boundary rays
  // (Algorithm 4 step 10). The hole boundary behind an obstacle w.r.t. a
  // device is carried by rays through obstacle vertices; candidates sit
  // where those rays cross ring radii.
  if (opt.use_obstacle_ring) {
    for (const Circle& c : circles) {
      for (const Segment& e : edges) {
        sink.add_all(geom::circle_segment_intersections(c, e));
      }
    }
    for (std::size_t pi : scratch.polygons) {
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
}

/// singleton_candidate_positions, appended to `out`; scratch.ri must hold
/// ring_radii(scenario, q, i).
void append_singleton_positions(const model::Scenario& scenario,
                                std::size_t q, std::size_t i,
                                const ExtractOptions& opt,
                                PositionScratch& scratch,
                                std::vector<Vec2>& out) {
  const auto& dev = scenario.device(i);
  const auto& ct = scenario.charger_type(q);
  PositionSink& sink = scratch.sink;
  sink.reset(dev.pos, dev.pos, ct.d_max, out);

  // Directions: evenly spaced azimuths across the receiving sector
  // (boundaries included) plus obstacle-vertex (hole boundary) directions
  // within range.
  const double alpha_o = scenario.device_type(dev.type).angle;
  const int n_az = std::max(2, opt.singleton_azimuths);
  std::vector<double>& dirs = scratch.dirs;
  dirs.clear();
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

  for (double r : scratch.ri) {
    if (r <= geom::kEps) continue;
    for (double a : dirs) {
      sink.add(dev.pos + geom::unit_vector(a) * r);
    }
  }
}

/// Seconds between stage boundaries, with the clock read only when on.
class StageClock {
 public:
  explicit StageClock(bool on) : on_(on) {
    if (on_) last_ = Clock::now();
  }

  /// Seconds since the previous lap (or construction); 0 when off.
  double lap() {
    if (!on_) return 0.0;
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool on_;
  Clock::time_point last_;
};

}  // namespace

std::vector<double> ring_radii(const model::Scenario& scenario, std::size_t q,
                               std::size_t j) {
  std::vector<double> radii;
  ring_radii_into(scenario, q, j, radii);
  return radii;
}

std::vector<Vec2> pair_candidate_positions(const model::Scenario& scenario,
                                           std::size_t q, std::size_t i,
                                           std::size_t j,
                                           const ExtractOptions& opt) {
  PositionScratch scratch(scenario);
  ring_radii_into(scenario, q, i, scratch.ri);
  std::vector<Vec2> out;
  append_pair_positions(scenario, q, i, j, opt, scratch, out);
  return out;
}

std::vector<Vec2> singleton_candidate_positions(
    const model::Scenario& scenario, std::size_t q, std::size_t i,
    const ExtractOptions& opt) {
  PositionScratch scratch(scenario);
  ring_radii_into(scenario, q, i, scratch.ri);
  std::vector<Vec2> out;
  append_singleton_positions(scenario, q, i, opt, scratch, out);
  return out;
}

std::vector<Candidate> extract_device_task(const model::Scenario& scenario,
                                           const spatial::GridIndex& devices,
                                           std::size_t i,
                                           const ExtractOptions& opt) {
  std::vector<Candidate> out;
  const Vec2 oi = scenario.device(i).pos;
  // Task-owned scratch, reused across charger types and positions (no
  // shared state, so tasks run in parallel freely). One sweep gates each
  // position's pool once, so a line-of-sight memo would rarely hit and is
  // not used.
  PositionScratch scratch(scenario);
  std::vector<Vec2> positions;
  spatial::Neighborhood hood;
  PointSweep sweep(scenario);
  SweepArena arena;
  DominanceFilter filter;

  const bool timed = obs::metrics_enabled();
  StageClock clock(timed);
  double positions_s = 0.0, sweep_s = 0.0, filter_s = 0.0;
  std::uint64_t num_positions = 0;

  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    const auto& ct = scenario.charger_type(q);
    // Neighbor set O^k_i: devices within 2·d^k_max (Algorithm 4 step 1).
    const auto neighbors = devices.query_radius(oi, 2.0 * ct.d_max);

    positions.clear();
    ring_radii_into(scenario, q, i, scratch.ri);
    if (opt.use_singleton) {
      append_singleton_positions(scenario, q, i, opt, scratch, positions);
    }
    for (std::size_t j : neighbors) {
      if (j <= i) continue;  // larger indices only — no duplicate tasks
      append_pair_positions(scenario, q, i, j, opt, scratch, positions);
    }
    num_positions += positions.size();
    positions_s += clock.lap();

    // Pools: devices within charging range of each position (the exact,
    // sorted query_radius pool), scanned out of one neighborhood of o_i
    // that reaches every position's pool. The sweep binds the
    // neighborhood once, so its receiver prefilter is built per (task,
    // type), and each pool is its local ids. Every position is feasible
    // (PositionSink admits no other).
    const double range = ct.d_max + geom::kCoverEps;
    double reach = 0.0;
    for (Vec2 p : positions) reach = std::max(reach, geom::distance(p, oi));
    arena.clear();
    if (!positions.empty()) {
      hood.fetch(devices, oi, reach, range);
      sweep.bind(hood.points());
      for (Vec2 p : positions) {
        hood.within(p, range);
        sweep.run(q, p, hood.local(), arena);
      }
    }
    sweep_s += clock.lap();

    if (arena.size() != 0) {
      for (std::uint32_t r : filter.run(arena.cover, hood.size())) {
        out.push_back(arena.candidate(r, hood.points()));
      }
    }
    filter_s += clock.lap();
  }
  if (timed) [[unlikely]] {
    static obs::Counter& swept = obs::counter("extract.point_orientations");
    static obs::Counter& kept = obs::counter("extract.point_rows_kept");
    static obs::Counter& generated = obs::counter("extract.positions");
    static obs::Counter& gate_pairs = obs::counter("extract.gate_pairs");
    static obs::Counter& gate_fast =
        obs::counter("extract.gate_fast_decisions");
    static obs::Counter& gate_exact =
        obs::counter("extract.gate_exact_checks");
    static obs::Accum& positions_acc = obs::accum("extract.positions_s");
    static obs::Accum& sweep_acc = obs::accum("extract.sweep_s");
    static obs::Accum& filter_acc = obs::accum("extract.task_filter_s");
    swept.bump(sweep.orientations());
    kept.bump(sweep.rows_kept());
    generated.bump(num_positions);
    gate_pairs.bump(sweep.gate_pairs());
    gate_fast.bump(sweep.gate_fast_decisions());
    gate_exact.bump(sweep.gate_exact_checks());
    positions_acc.add(positions_s);
    sweep_acc.add(sweep_s);
    filter_acc.add(filter_s);
  }
  return out;
}

}  // namespace hipo::pdcs
