#include "src/opt/delta.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pdcs/extract.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

namespace {

/// Euclidean distance from a point to an axis-aligned box (0 inside).
double box_distance(geom::Vec2 p, const geom::BBox& box) {
  const double dx = std::max({box.lo.x - p.x, 0.0, p.x - box.hi.x});
  const double dy = std::max({box.lo.y - p.y, 0.0, p.y - box.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

void validate_device(const model::Device& d, std::size_t num_device_types) {
  HIPO_REQUIRE(std::isfinite(d.pos.x) && std::isfinite(d.pos.y) &&
                   std::isfinite(d.orientation),
               "delta: device position/orientation must be finite");
  HIPO_REQUIRE(d.type < num_device_types,
               "delta: device type index out of range");
  HIPO_REQUIRE(std::isfinite(d.p_th) && d.p_th > 0.0,
               "delta: device p_th must be positive");
  HIPO_REQUIRE(std::isfinite(d.weight) && d.weight > 0.0,
               "delta: device weight must be positive");
}

/// Scenario's constructor enforces these too, but checking *before* the
/// config mutation keeps a rejected op from leaving the solver half-mutated.
void validate_device_position(const model::Scenario::Config& cfg,
                              geom::Vec2 pos) {
  HIPO_REQUIRE(cfg.region.contains(pos, geom::kEps),
               "delta: device outside the region");
  for (const geom::Polygon& h : cfg.obstacles) {
    HIPO_REQUIRE(!h.contains_interior(pos),
                 "delta: device placed inside an obstacle");
  }
}

}  // namespace

DeltaSolver::DeltaSolver(model::Scenario::Config config, DeltaOptions options)
    : config_(std::move(config)), options_(options) {
  HIPO_REQUIRE(options_.rebuild_fraction >= 0.0,
               "delta: rebuild_fraction must be non-negative");
  rebuild_scenario();
  per_task_.assign(scenario_->num_devices(), {});
  kept_.assign(scenario_->num_charger_types(), {});
  // Cold build = "everything invalidated" over an empty matrix: the same
  // refresh that patches deltas then inserts every surviving row, which is
  // what keeps the cold and warm code paths one path.
  std::vector<std::uint8_t> affected(scenario_->num_devices(), 1);
  DeltaStats stats;
  refresh(affected, kNone, stats);
}

void DeltaSolver::rebuild_scenario() {
  // Scenario's constructor consumes its config, so it gets a copy;
  // config_ stays the mutable source of truth across deltas.
  scenario_.emplace(model::Scenario::Config(config_));
}

std::vector<std::uint8_t> DeltaSolver::affected_tasks(
    const std::vector<geom::Vec2>& points,
    const std::vector<geom::BBox>& boxes) const {
  // Invalidation radius: a task's output depends on geometry at most
  // 4·d_max from its device — candidate positions sit within 3·d_max of it
  // (pair anchors are ≤ 2·d_max away, positions within charging range of an
  // anchor), and each position's covered pool / LOS segments reach another
  // d_max. Anything farther can touch neither the constructions nor the
  // predicates, so its task re-extracts to the identical output. The slack
  // absorbs the coverage epsilon on the pool query.
  const double r = 4.0 * scenario_->max_charge_range() + 1e-3;
  const std::size_t n = scenario_->num_devices();
  std::vector<std::uint8_t> affected(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 pos = scenario_->device(i).pos;
    for (const geom::Vec2 p : points) {
      if (geom::distance(pos, p) <= r) {
        affected[i] = 1;
        break;
      }
    }
    if (affected[i]) continue;
    for (const geom::BBox& box : boxes) {
      // Conservative: box distance underestimates polygon distance, so
      // this only ever re-extracts *more* tasks — never misses one.
      if (box_distance(pos, box) <= r) {
        affected[i] = 1;
        break;
      }
    }
  }
  return affected;
}

DeltaStats DeltaSolver::apply(const DeltaOp& op) {
  obs::Span span("delta.apply", static_cast<std::uint64_t>(op.kind));
  DeltaStats stats;

  // 1. Validate + mutate the config, recording the delta's geometry.
  std::vector<geom::Vec2> points;
  std::vector<geom::BBox> boxes;
  std::size_t removed_task = kNone;
  switch (op.kind) {
    case DeltaOp::Kind::kAddDevice: {
      validate_device(op.device, config_.device_types.size());
      validate_device_position(config_, op.device.pos);
      points.push_back(op.device.pos);
      config_.devices.push_back(op.device);
      per_task_.emplace_back();
      break;
    }
    case DeltaOp::Kind::kRemoveDevice: {
      HIPO_REQUIRE(op.index < config_.devices.size(),
                   "delta: remove_device index out of range");
      points.push_back(config_.devices[op.index].pos);
      config_.devices.erase(config_.devices.begin() +
                            static_cast<std::ptrdiff_t>(op.index));
      per_task_.erase(per_task_.begin() +
                      static_cast<std::ptrdiff_t>(op.index));
      removed_task = op.index;
      break;
    }
    case DeltaOp::Kind::kMoveDevice: {
      HIPO_REQUIRE(op.index < config_.devices.size(),
                   "delta: move_device index out of range");
      HIPO_REQUIRE(std::isfinite(op.pos.x) && std::isfinite(op.pos.y),
                   "delta: move_device position must be finite");
      validate_device_position(config_, op.pos);
      if (op.has_orientation) {
        HIPO_REQUIRE(std::isfinite(op.orientation),
                     "delta: move_device orientation must be finite");
      }
      model::Device& d = config_.devices[op.index];
      points.push_back(d.pos);
      points.push_back(op.pos);
      d.pos = op.pos;
      if (op.has_orientation) d.orientation = op.orientation;
      break;
    }
    case DeltaOp::Kind::kAddObstacle: {
      HIPO_REQUIRE(op.obstacle.size() >= 3,
                   "delta: add_obstacle needs at least 3 vertices");
      for (const geom::Vec2 v : op.obstacle) {
        HIPO_REQUIRE(std::isfinite(v.x) && std::isfinite(v.y),
                     "delta: obstacle vertices must be finite");
      }
      geom::Polygon poly(op.obstacle);
      HIPO_REQUIRE(poly.is_simple(),
                   "delta: obstacle polygon must be simple");
      for (const model::Device& d : config_.devices) {
        HIPO_REQUIRE(!poly.contains_interior(d.pos),
                     "delta: obstacle would swallow a device");
      }
      boxes.push_back(poly.bbox());
      config_.obstacles.push_back(std::move(poly));
      break;
    }
    case DeltaOp::Kind::kRemoveObstacle: {
      HIPO_REQUIRE(op.index < config_.obstacles.size(),
                   "delta: remove_obstacle index out of range");
      boxes.push_back(config_.obstacles[op.index].bbox());
      config_.obstacles.erase(config_.obstacles.begin() +
                              static_cast<std::ptrdiff_t>(op.index));
      break;
    }
  }
  rebuild_scenario();

  // 2. Invalidation set over the *new* device list. A moved/added device is
  // at distance 0 from its own delta point, so its task is always in.
  std::vector<std::uint8_t> affected = affected_tasks(points, boxes);
  std::size_t num_affected = 0;
  for (const std::uint8_t a : affected) num_affected += a;
  const std::size_t n = affected.size();
  if (static_cast<double>(num_affected) >
      options_.rebuild_fraction * static_cast<double>(n)) {
    std::fill(affected.begin(), affected.end(), std::uint8_t{1});
    stats.full_rebuild = true;
  }

  // 3. Device-id renumber in the surviving cached outputs: removing column
  // r shifts every id above it down. Only unaffected tasks matter (the
  // rest are re-extracted), and none of them can cover r — a candidate
  // covering r sits within d_max of it, its task within 4·d_max, which is
  // inside the invalidation radius.
  if (removed_task != kNone) {
    for (std::size_t i = 0; i < per_task_.size(); ++i) {
      if (affected[i]) continue;
      for (pdcs::Candidate& c : per_task_[i]) {
        for (std::size_t& j : c.covered) {
          HIPO_ASSERT_MSG(j != removed_task,
                          "unaffected task covers the removed device");
          if (j > removed_task) --j;
        }
      }
    }
  }

  refresh(affected, removed_task, stats);

  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("delta.rows_patched")
        .add(stats.rows_erased + stats.rows_inserted);
    obs::counter("delta.candidates_regenerated")
        .add(stats.candidates_regenerated);
    if (stats.full_rebuild) obs::counter("delta.full_rebuilds").bump();
  }
  return stats;
}

void DeltaSolver::refresh(const std::vector<std::uint8_t>& affected,
                          std::size_t removed_task, DeltaStats& stats) {
  const std::size_t n = scenario_->num_devices();
  const std::size_t num_types = scenario_->num_charger_types();
  HIPO_ASSERT(per_task_.size() == n);
  stats.tasks_total = n;

  // Re-extract the invalidated tasks (same task code, same options, same
  // device-order GridIndex as pdcs::extract_all — determinism makes each
  // regenerated output bit-identical to what the cold pipeline computes).
  {
    obs::Span span("delta.extract");
    std::vector<geom::Vec2> pts;
    pts.reserve(n);
    for (std::size_t j = 0; j < n; ++j) pts.push_back(scenario_->device(j).pos);
    const spatial::GridIndex index(scenario_->region(), std::move(pts));
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < n; ++i) {
      if (affected[i]) todo.push_back(i);
    }
    auto run_task = [&](std::size_t k) {
      const std::size_t i = todo[k];
      per_task_[i] =
          pdcs::extract_device_task(*scenario_, index, i, options_.extract);
    };
    parallel::ThreadPool* pool = options_.workers;
    if (pool != nullptr && pool->num_workers() > 1) {
      pool->parallel_for(todo.size(), run_task);
    } else {
      for (std::size_t k = 0; k < todo.size(); ++k) run_task(k);
    }
    stats.tasks_regenerated = todo.size();
    for (const std::size_t i : todo) {
      stats.candidates_regenerated += per_task_[i].size();
    }
  }

  // Merge task-major into per-type pools (the order extract_all merges in)
  // and re-run the dominance filter per type. Pool entries carry their
  // (task, emit) identity so survivors can be matched to existing rows.
  obs::Span filter_span("delta.filter");
  std::vector<std::vector<const pdcs::Candidate*>> pool_ptr(num_types);
  std::vector<std::vector<Tag>> pool_tag(num_types);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = 0; e < per_task_[i].size(); ++e) {
      const pdcs::Candidate& c = per_task_[i][e];
      HIPO_ASSERT(c.strategy.type < num_types);
      pool_ptr[c.strategy.type].push_back(&c);
      pool_tag[c.strategy.type].push_back(
          {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(e)});
    }
  }
  std::vector<std::vector<std::size_t>> kept_idx(num_types);
  parallel::chunked_for(options_.workers, num_types, [&](std::size_t q) {
    if (options_.extract.global_filter) {
      kept_idx[q] = pdcs::filter_dominated_indices(pool_ptr[q], n);
    } else {
      kept_idx[q].resize(pool_ptr[q].size());
      std::iota(kept_idx[q].begin(), kept_idx[q].end(), std::size_t{0});
    }
  });
  filter_span.finish();

  // Diff the survivors against the current rows. A survivor from an
  // untouched task whose (task, emit) already has a row keeps that row
  // (its content is unchanged by construction); everything else is an
  // insert, and unmatched old rows die. Relative order of untouched
  // survivors is preserved — the filter's sort keys don't change and
  // order-preserving pool edits keep its index tie-break stable — so kept
  // rows arrive in ascending old-row order, which is exactly the splice
  // contract of apply_patch.
  obs::Span patch_span("delta.patch");
  HIPO_ASSERT(kept_.size() == num_types);
  std::unordered_map<std::uint64_t, std::uint32_t> old_rows;
  {
    std::size_t old_row = 0;
    for (std::size_t q = 0; q < num_types; ++q) {
      for (const Tag& t : kept_[q]) {
        std::size_t nt = t.task;
        if (removed_task != kNone) {
          if (nt == removed_task) {
            ++old_row;
            continue;
          }
          if (nt > removed_task) --nt;
        }
        if (nt < n && !affected[nt]) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(nt) << 32) | t.emit;
          old_rows.emplace(key, static_cast<std::uint32_t>(old_row));
        }
        ++old_row;
      }
    }
    HIPO_ASSERT_MSG(old_row == matrix_.num_rows(),
                    "delta: kept tags out of sync with the matrix");
  }

  std::vector<CoverageMatrix::RowInsert> inserts;
  std::vector<std::uint8_t> keep_old(matrix_.num_rows(), 0);
  std::vector<std::vector<Tag>> new_kept(num_types);
  std::uint32_t new_row = 0;
  std::int64_t last_kept = -1;
  for (std::size_t q = 0; q < num_types; ++q) {
    new_kept[q].reserve(kept_idx[q].size());
    for (const std::size_t pos : kept_idx[q]) {
      const Tag t = pool_tag[q][pos];
      new_kept[q].push_back(t);
      bool matched = false;
      if (!affected[t.task]) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(t.task) << 32) | t.emit;
        const auto it = old_rows.find(key);
        if (it != old_rows.end()) {
          HIPO_ASSERT_MSG(static_cast<std::int64_t>(it->second) > last_kept,
                          "delta: kept rows are not in ascending order");
          last_kept = it->second;
          keep_old[it->second] = 1;
          matched = true;
        }
      }
      if (!matched) inserts.push_back({new_row, pool_ptr[q][pos]});
      ++new_row;
    }
  }
  for (std::size_t i = 0; i < keep_old.size(); ++i) {
    if (!keep_old[i]) matrix_.mark_dead(i);
  }
  const CoverageMatrix::PatchStats patch = matrix_.apply_patch(
      inserts, n, removed_task == kNone ? CoverageMatrix::kNoDevice
                                        : removed_task);
  kept_ = std::move(new_kept);
  stats.rows_erased = patch.rows_erased;
  stats.rows_inserted = patch.rows_inserted;
  stats.rows_kept = patch.rows_kept;
  stats.in_place = patch.in_place;
  patch_span.finish();

  // Warm re-solve: the shared greedy drivers over the patched arenas.
  obs::Span greedy_span("delta.greedy");
  result_ = select_strategies(*scenario_, matrix_, options_.mode,
                              options_.kind, options_.workers);
}

// --- JSONL delta scripts --------------------------------------------------

namespace {

/// Minimal JSON-object reader for the one-op-per-line script format. Only
/// what the schema needs: string values, finite numbers, and the vertices
/// array of [x, y] pairs.
class LineParser {
 public:
  LineParser(const std::string& line, std::size_t line_no)
      : p_(line.c_str()), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream os;
    os << "delta script line " << line_no_ << ": " << what;
    throw ConfigError(os.str());
  }

  void skip_ws() {
    while (*p_ == ' ' || *p_ == '\t' || *p_ == '\r') ++p_;
  }
  bool consume(char c) {
    skip_ws();
    if (*p_ != c) return false;
    ++p_;
    return true;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  bool at_end() {
    skip_ws();
    return *p_ == '\0';
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (*p_ != '"') {
      if (*p_ == '\0') fail("unterminated string");
      if (*p_ == '\\') fail("escape sequences are not supported");
      out.push_back(*p_++);
    }
    ++p_;
    return out;
  }

  double parse_number() {
    skip_ws();
    char* end = nullptr;
    const double v = std::strtod(p_, &end);
    if (end == p_) fail("expected a number");
    if (!std::isfinite(v)) fail("numbers must be finite");
    p_ = end;
    return v;
  }

  std::size_t to_index(double v) const {
    if (!(v >= 0.0) || v != std::floor(v) || v > 1e15) {
      fail("expected a non-negative integer");
    }
    return static_cast<std::size_t>(v);
  }

  std::vector<geom::Vec2> parse_vertices() {
    std::vector<geom::Vec2> out;
    expect('[');
    if (consume(']')) return out;
    do {
      expect('[');
      const double x = parse_number();
      expect(',');
      const double y = parse_number();
      expect(']');
      out.push_back({x, y});
    } while (consume(','));
    expect(']');
    return out;
  }

 private:
  const char* p_;
  std::size_t line_no_;
};

DeltaOp parse_op_line(const std::string& line, std::size_t line_no) {
  LineParser parser(line, line_no);
  std::unordered_map<std::string, double> nums;
  std::string op_name;
  bool has_op = false;
  std::vector<geom::Vec2> vertices;
  bool has_vertices = false;

  parser.expect('{');
  if (!parser.consume('}')) {
    do {
      const std::string key = parser.parse_string();
      parser.expect(':');
      if (key == "op") {
        if (has_op) parser.fail("duplicate key \"op\"");
        has_op = true;
        op_name = parser.parse_string();
      } else if (key == "vertices") {
        if (has_vertices) parser.fail("duplicate key \"vertices\"");
        vertices = parser.parse_vertices();
        has_vertices = true;
      } else {
        if (!nums.emplace(key, parser.parse_number()).second) {
          parser.fail("duplicate key \"" + key + "\"");
        }
      }
    } while (parser.consume(','));
    parser.expect('}');
  }
  if (!parser.at_end()) parser.fail("trailing characters after the object");
  if (!has_op) parser.fail("missing \"op\"");

  // A typo'd or unknown field silently ignored is a delta that does not do
  // what the script says — reject it, naming the field.
  const auto require_known = [&](std::initializer_list<const char*> allowed) {
    for (const auto& kv : nums) {
      bool known = false;
      for (const char* a : allowed) known = known || kv.first == a;
      if (!known) {
        parser.fail("unknown field \"" + kv.first + "\" for op " + op_name);
      }
    }
  };

  const auto num = [&](const char* key) {
    const auto it = nums.find(key);
    if (it == nums.end()) {
      parser.fail(std::string("missing \"") + key + "\" for op " + op_name);
    }
    return it->second;
  };
  const auto num_or = [&](const char* key, double fallback) {
    const auto it = nums.find(key);
    return it == nums.end() ? fallback : it->second;
  };

  DeltaOp op;
  if (op_name == "add_device") {
    require_known({"x", "y", "orientation", "type", "p_th", "weight"});
    op.kind = DeltaOp::Kind::kAddDevice;
    op.device.pos = {num("x"), num("y")};
    op.device.orientation = num_or("orientation", 0.0);
    op.device.type = parser.to_index(num_or("type", 0.0));
    op.device.p_th = num_or("p_th", 0.05);
    op.device.weight = num_or("weight", 1.0);
  } else if (op_name == "remove_device") {
    require_known({"index"});
    op.kind = DeltaOp::Kind::kRemoveDevice;
    op.index = parser.to_index(num("index"));
  } else if (op_name == "move_device") {
    require_known({"index", "x", "y", "orientation"});
    op.kind = DeltaOp::Kind::kMoveDevice;
    op.index = parser.to_index(num("index"));
    op.pos = {num("x"), num("y")};
    if (nums.count("orientation") != 0) {
      op.has_orientation = true;
      op.orientation = nums.at("orientation");
    }
  } else if (op_name == "add_obstacle") {
    require_known({});
    op.kind = DeltaOp::Kind::kAddObstacle;
    if (!has_vertices) parser.fail("add_obstacle needs \"vertices\"");
    op.obstacle = std::move(vertices);
  } else if (op_name == "remove_obstacle") {
    require_known({"index"});
    op.kind = DeltaOp::Kind::kRemoveObstacle;
    op.index = parser.to_index(num("index"));
  } else {
    parser.fail("unknown op \"" + op_name + "\"");
  }
  if (has_vertices && op.kind != DeltaOp::Kind::kAddObstacle) {
    parser.fail("\"vertices\" is only valid for add_obstacle");
  }
  return op;
}

}  // namespace

std::vector<DeltaOp> parse_delta_script(const std::string& text) {
  std::vector<DeltaOp> ops;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ops.push_back(parse_op_line(line, line_no));
  }
  return ops;
}

std::vector<DeltaOp> read_delta_script_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open delta script: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_delta_script(buffer.str());
}

}  // namespace hipo::opt
