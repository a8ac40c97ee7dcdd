// Shared pieces of hipo_perfbench, the end-to-end benchmark: workload inputs,
// sample statistics, the in-memory span recorder, and the result record
// printed as the program's last stdout line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/pdcs/candidate.hpp"

namespace perfbench {

// ---- inputs ---------------------------------------------------------------

/// Sec. 6 paper scenario scaled by the given generator knobs, generated from
/// `seed` and serialized through model::io.
std::string paper_scenario_text(std::uint64_t seed, int region_scale,
                                int device_multiplier, int charger_multiplier);

/// Parse `.hipo` text through model::io.
hipo::model::Scenario parse_scenario(const std::string& text);

/// Byte-for-byte equality of two candidate lists (strategy, covered set,
/// powers) and of two placements.
bool same_candidates(const std::vector<hipo::pdcs::Candidate>& a,
                     const std::vector<hipo::pdcs::Candidate>& b);
bool same_placement(const hipo::model::Placement& a,
                    const hipo::model::Placement& b);

/// Sum of the named counters in obs::metrics_snapshot().
std::uint64_t counter_total(const std::vector<std::string>& names);

// ---- statistics -----------------------------------------------------------

/// Linearly interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Peak resident set of this process (MiB).
double self_peak_rss_mb();
/// Peak resident set of the largest reaped child process (MiB).
double children_peak_rss_mb();

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder. Spans nest through a stack of open spans on
/// the recording thread; every span of one op carries the op's id. The
/// recorder is written out once, when the run ends.
class Spans {
 public:
  struct Record {
    std::string name;
    std::uint64_t op = 0;
    long parent = -1;  // index of the enclosing span, -1 at an op's root
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  /// RAII span on the global recorder; a no-op when recording is off.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (ms), valid whether or not recording is on.
    double elapsed_ms() const;

   private:
    long index_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  static Spans& global();

  void enable(bool on) { enabled_ = on; }
  /// Start a new op: later root spans carry the new id.
  void begin_op() { ++op_; }

  /// Per-name count, total and self time (total minus the part covered by
  /// child spans), as a fixed-width text table.
  std::string self_time_table() const;
  /// All spans as a JSON array.
  std::string to_json() const;

 private:
  double now_ms() const;

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Record> records_;
  std::vector<long> open_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Wall-clock milliseconds of `fn()`, not recorded as a span.
template <typename F>
double clock_ms(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall-clock milliseconds of `fn()`, recorded as a span named `name`.
template <typename F>
double timed(const char* name, F&& fn) {
  Spans::Scope scope(name);
  fn();
  return scope.elapsed_ms();
}

// ---- results --------------------------------------------------------------

struct Metric {
  std::string unit;
  double value = 0.0;
  /// The within-run samples the value summarizes (quartiles in the detail
  /// line); empty for a single measured value.
  std::vector<double> samples;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra facts for the detail line (counts, sizes), all numeric.
  std::map<std::string, double> facts;

  void fail(const std::string& why);
  /// Add another tally's attempted/failed counts and verdict.
  void merge(const Result& other);
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory the traced run writes its span file and layer table into.
  std::string out_dir = ".";
};

Result run_cold_solve(const RunOptions& opt);
Result run_serve_rw(const RunOptions& opt);
Result run_shard_extract(const RunOptions& opt);

// ---- per-layer probes (traced runs) ---------------------------------------

/// Layer metrics of one probe: name → (unit, value).
using Layers = std::map<std::string, Metric>;

/// Cold-solve decomposition: extraction rebuilt from its public pieces
/// (asserted byte-identical to pdcs::extract_all and, after CSR packing and
/// greedy, to core::solve's placement), timed layer by layer.
Layers probe_cold(const std::vector<std::string>& texts, Result& result);
/// Serving path: the served request cycle replayed through the socket
/// server and through Service::handle, with wire, model::io, hashing, warm
/// greedy, evaluation and DeltaSolver layers timed by direct calls.
Layers probe_serve(const std::vector<std::string>& texts, int cycles,
                   std::uint64_t seed, Result& result);
/// Sharded extraction: plan, forked workers, merge, CSR pack and warm
/// greedy, with the merged pool asserted equal to pdcs::extract_all.
Layers probe_shard(const std::string& text, int ops, Result& result);

/// Assemble a traced run's result from the probes (the workload's own
/// probe last, so its values win on shared names — including
/// `trace.overhead_ratio`, traced over untraced op time), then write the
/// span file and the layer table.
Result finish_traced(const RunOptions& opt, const std::vector<Layers>& probes,
                     Result result);

}  // namespace perfbench
