#include "src/spatial/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace hipo::spatial {

using geom::BBox;
using geom::Vec2;

GridIndex::GridIndex(const BBox& bounds, std::vector<Vec2> points,
                     double target_per_cell)
    : bounds_(bounds), points_(std::move(points)) {
  HIPO_REQUIRE(bounds.hi.x > bounds.lo.x && bounds.hi.y > bounds.lo.y,
               "GridIndex needs a non-degenerate bounding box");
  HIPO_REQUIRE(target_per_cell > 0.0, "target_per_cell must be positive");
  const double n = std::max<double>(1.0, static_cast<double>(points_.size()));
  const double cells = std::max(1.0, n / target_per_cell);
  const Vec2 ext = bounds.extent();
  const double aspect = ext.x / ext.y;
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(std::sqrt(cells * aspect))));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(std::sqrt(cells / aspect))));
  cell_w_ = ext.x / static_cast<double>(nx_);
  cell_h_ = ext.y / static_cast<double>(ny_);
  cells_.resize(nx_ * ny_);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cells_[cell_of(points_[i])].push_back(i);
  }
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t cx = clamp_idx((p.x - bounds_.lo.x) / cell_w_, nx_);
  const std::size_t cy = clamp_idx((p.y - bounds_.lo.y) / cell_h_, ny_);
  return cy * nx_ + cx;
}

void GridIndex::cell_range(const BBox& box, std::size_t& x0, std::size_t& x1,
                           std::size_t& y0, std::size_t& y1) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  x0 = clamp_idx((box.lo.x - bounds_.lo.x) / cell_w_, nx_);
  x1 = clamp_idx((box.hi.x - bounds_.lo.x) / cell_w_, nx_);
  y0 = clamp_idx((box.lo.y - bounds_.lo.y) / cell_h_, ny_);
  y1 = clamp_idx((box.hi.y - bounds_.lo.y) / cell_h_, ny_);
}

std::vector<std::size_t> GridIndex::query_radius(Vec2 center,
                                                 double radius) const {
  HIPO_REQUIRE(radius >= 0.0, "radius must be non-negative");
  BBox box;
  box.lo = center - Vec2{radius, radius};
  box.hi = center + Vec2{radius, radius};
  std::size_t x0, x1, y0, y1;
  cell_range(box, x0, x1, y0, y1);
  std::vector<std::size_t> out;
  const double r2 = radius * radius;
  for (std::size_t cy = y0; cy <= y1; ++cy) {
    for (std::size_t cx = x0; cx <= x1; ++cx) {
      for (std::size_t idx : cells_[cy * nx_ + cx]) {
        if (distance2(points_[idx], center) <= r2) out.push_back(idx);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> GridIndex::query_box(const BBox& box) const {
  std::size_t x0, x1, y0, y1;
  cell_range(box, x0, x1, y0, y1);
  std::vector<std::size_t> out;
  for (std::size_t cy = y0; cy <= y1; ++cy) {
    for (std::size_t cx = x0; cx <= x1; ++cx) {
      for (std::size_t idx : cells_[cy * nx_ + cx]) {
        if (box.contains(points_[idx])) out.push_back(idx);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Neighborhood::fetch(const GridIndex& index, Vec2 center, double reach,
                         double r) {
  ids_ = index.query_radius(center, (reach + r) * (1.0 + 1e-9));
  HIPO_ASSERT(ids_.size() <= UINT32_MAX);
  xs_.clear();
  ys_.clear();
  for (std::size_t idx : ids_) {
    xs_.push_back(index.points()[idx].x);
    ys_.push_back(index.points()[idx].y);
  }
  if (local_.size() < ids_.size()) local_.resize(ids_.size());
  found_ = 0;
}

void Neighborhood::within(Vec2 p, double r) {
  // Branch-free compaction: every point is written at the next free slot,
  // which only advances on a hit (slot <= k, so the buffers never overflow).
  const double r2 = r * r;
  std::size_t n = 0;
  for (std::size_t k = 0; k < ids_.size(); ++k) {
    local_[n] = static_cast<std::uint32_t>(k);
    n += distance2(Vec2{xs_[k], ys_[k]}, p) <= r2 ? 1 : 0;
  }
  found_ = n;
}

}  // namespace hipo::spatial
