// Uniform grid over a bounding box for radius queries on point sets.
//
// Used to find a device's neighbor set (Algorithm 4: devices within
// 2·d^k_max) and to prune candidate-position coverage checks without an
// O(No) scan per query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/geometry/vec2.hpp"

namespace hipo::spatial {

class GridIndex {
 public:
  /// Builds an index over `points` inside `bounds`; `target_per_cell`
  /// controls grid resolution. Points outside bounds are clamped to the
  /// boundary cells (still retrievable).
  GridIndex(const geom::BBox& bounds, std::vector<geom::Vec2> points,
            double target_per_cell = 2.0);

  /// Indices of points within `radius` of `center` (exact post-filter).
  std::vector<std::size_t> query_radius(geom::Vec2 center,
                                        double radius) const;

  /// Indices of points inside the axis-aligned box (exact post-filter).
  std::vector<std::size_t> query_box(const geom::BBox& box) const;

  std::size_t size() const { return points_.size(); }
  const std::vector<geom::Vec2>& points() const { return points_; }

 private:
  std::size_t cell_of(geom::Vec2 p) const;
  void cell_range(const geom::BBox& box, std::size_t& x0, std::size_t& x1,
                  std::size_t& y0, std::size_t& y1) const;

  geom::BBox bounds_;
  std::vector<geom::Vec2> points_;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::vector<std::vector<std::size_t>> cells_;
};

/// A superset of an index's points, fetched with one query_radius around a
/// center and held as SoA coordinates, that answers radius queries for
/// centers near it by scanning: within(p, r) tests each point with
/// query_radius's exact predicate `distance2(point, p) <= r * r`, so for any
/// p at most `reach` from the center it finds exactly query_radius(p, r),
/// in the same ascending order, with no sort and no allocation. Not
/// thread-safe; one per task.
class Neighborhood {
 public:
  /// Fetches every point within (reach + r) of `center`, padded by a
  /// relative 1e-9 so that rounding in the distances cannot drop a point
  /// that a within(p, r) with |p − center| <= reach accepts (triangle
  /// inequality).
  void fetch(const GridIndex& index, geom::Vec2 center, double reach,
             double r);

  /// Finds the fetched points within r of p; local() holds them until the
  /// next call.
  void within(geom::Vec2 p, double r);

  /// The last within()'s points as positions in points(), ascending: mapped
  /// through points() they are exactly query_radius(p, r).
  std::span<const std::uint32_t> local() const {
    return {local_.data(), found_};
  }

  /// The fetched indices, ascending.
  std::span<const std::size_t> points() const { return ids_; }
  std::size_t size() const { return ids_.size(); }

 private:
  std::vector<std::size_t> ids_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint32_t> local_;
  std::size_t found_ = 0;
};

}  // namespace hipo::spatial
