#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "src/obs/metrics.hpp"
#include "src/model/io.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

std::string paper_scenario_text(std::uint64_t seed, int region_scale,
                                int device_multiplier,
                                int charger_multiplier) {
  hipo::model::GenOptions gen;
  gen.region_scale = region_scale;
  gen.device_multiplier = device_multiplier;
  gen.charger_multiplier = charger_multiplier;
  hipo::Rng rng(seed);
  std::ostringstream os;
  hipo::model::write_scenario(os, hipo::model::make_paper_scenario(gen, rng));
  return os.str();
}

hipo::model::Scenario parse_scenario(const std::string& text) {
  std::istringstream is(text);
  return hipo::model::read_scenario(is);
}

bool same_candidates(const std::vector<hipo::pdcs::Candidate>& a,
                     const std::vector<hipo::pdcs::Candidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_placement({a[i].strategy}, {b[i].strategy}) ||
        a[i].covered != b[i].covered ||
        a[i].powers.size() != b[i].powers.size() ||
        std::memcmp(a[i].powers.data(), b[i].powers.data(),
                    a[i].powers.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool same_placement(const hipo::model::Placement& a,
                    const hipo::model::Placement& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double va[] = {a[i].pos.x, a[i].pos.y, a[i].orientation};
    const double vb[] = {b[i].pos.x, b[i].pos.y, b[i].orientation};
    if (std::memcmp(va, vb, sizeof va) != 0 || a[i].type != b[i].type) {
      return false;
    }
  }
  return true;
}

std::uint64_t counter_total(const std::vector<std::string>& names) {
  std::uint64_t total = 0;
  for (const auto& c : hipo::obs::metrics_snapshot().counters) {
    if (std::find(names.begin(), names.end(), c.name) != names.end()) {
      total += c.value;
    }
  }
  return total;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

namespace {
double maxrss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}
}  // namespace

double self_peak_rss_mb() { return maxrss_mb(RUSAGE_SELF); }
double children_peak_rss_mb() { return maxrss_mb(RUSAGE_CHILDREN); }

void Result::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Result::merge(const Result& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
}

// ---- spans ----------------------------------------------------------------

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

double Spans::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Spans::Scope::Scope(const char* name)
    : start_(std::chrono::steady_clock::now()) {
  Spans& s = global();
  if (!s.enabled_) return;
  index_ = static_cast<long>(s.records_.size());
  Record rec;
  rec.name = name;
  rec.op = s.op_;
  rec.parent = s.open_.empty() ? -1 : s.open_.back();
  rec.start_ms = std::chrono::duration<double, std::milli>(start_ - s.epoch_)
                     .count();
  s.records_.push_back(std::move(rec));
  s.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  Spans& s = global();
  s.records_[static_cast<std::size_t>(index_)].end_ms = s.now_ms();
  s.open_.pop_back();
}

double Spans::Scope::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

std::string Spans::self_time_table() const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const auto& r : records_) {
    if (r.parent >= 0) {
      child_ms[static_cast<std::size_t>(r.parent)] += r.end_ms - r.start_ms;
    }
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    Row& row = rows[records_[i].name];
    const double d = records_[i].end_ms - records_[i].start_ms;
    ++row.count;
    row.total += d;
    row.self += d - child_ms[i];
  }
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %10s %14s %14s\n", "span", "count",
                "total_ms", "self_ms");
  os << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "%-28s %10zu %14.3f %14.3f\n",
                  name.c_str(), row.count, row.total, row.self);
    os << line;
  }
  return os.str();
}

std::string Spans::to_json() const {
  std::ostringstream os;
  os << "[";
  char buf[96];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf, "%.6f,\"end_ms\":%.6f}", r.start_ms,
                  r.end_ms);
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
       << "\",\"op\":" << r.op << ",\"parent\":" << r.parent
       << ",\"start_ms\":" << buf;
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace perfbench
