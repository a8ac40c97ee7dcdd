// Candidate strategies with their covered-device sets (Definitions 4.1–4.3).
//
// A Candidate pairs a placement strategy with the set of devices it covers
// and the constant approximated power it delivers to each. Dominance
// (Definition 4.1) compares candidates of the same charger type: A is
// dominated by B when B covers a superset of A's devices — and, because our
// candidates carry per-device ring powers rather than living inside one
// feasible geometric area, we additionally require B's power to each of A's
// devices to be at least A's. This value-wise dominance is sound for the
// submodular objective (swapping A for B never decreases any marginal gain).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/types.hpp"

namespace hipo::pdcs {

struct Candidate {
  model::Strategy strategy;
  /// Devices receiving nonzero approximated power, ascending indices.
  std::vector<std::size_t> covered;
  /// Approximated (ring-constant) power per covered device, parallel to
  /// `covered`.
  std::vector<double> powers;

  bool covers_nothing() const { return covered.empty(); }
};

/// True iff `a` is dominated by (or equivalent to and ranked after) `b`:
/// covered(a) ⊆ covered(b) with power(b, j) >= power(a, j) − eps for every
/// j covered by a. Candidates must share a charger type for the comparison
/// to be meaningful; the caller guarantees it.
bool dominated_by(const Candidate& a, const Candidate& b, double eps = 1e-12);

/// Covered sets in flat form, the input of the dominance core. Row r covers
/// ids[offset, offset + count) — ascending ids of an order-preserving remap
/// of device indices onto [0, universe) — with the parallel `powers`;
/// `total` is the sum of those powers in covered order, starting from 0.0.
struct CoverRows {
  struct Row {
    std::uint32_t offset;
    std::uint32_t count;
    double total;
  };
  std::vector<Row> rows;
  std::vector<std::uint32_t> ids;
  std::vector<double> powers;

  std::size_t size() const { return rows.size(); }
  void clear();
  /// Opens an empty row at the end of ids/powers; push() appends an entry
  /// to it (ascending ids) and adds the power to its total.
  void begin_row();
  void push(std::uint32_t id, double power);
};

/// The dominance filter (Algorithm 2 step 9 / Algorithm 4 step 11) over
/// flat rows, with scratch reused across calls. Every filter in extraction
/// runs here: the per-task filter on a task's sweep arena, and
/// filter_dominated / filter_dominated_indices through flat copies.
/// Not thread-safe; one per task.
class DominanceFilter {
 public:
  /// Survivors of `in` (ids < `universe`) as row indices, in survivor order:
  /// rows sorted by size descending, total descending, then row index, each
  /// kept unless dominated_by (ε = 1e-12) one of the rows kept before it.
  /// Empty rows are dropped. Valid until the next call.
  std::span<const std::uint32_t> run(const CoverRows& in,
                                     std::size_t universe);

 private:
  struct Key {
    std::uint32_t size;
    std::uint32_t index;
    double total;
  };
  std::vector<Key> keys_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::uint64_t> kept_masks_;
  std::vector<std::vector<std::uint32_t>> kept_by_id_;
  std::vector<std::uint32_t> kept_;
};

/// Remove dominated candidates (Algorithm 2 step 9 / Algorithm 4 step 11).
/// Also removes exact duplicates. Stable in the sense that survivors keep
/// their relative order of first appearance among equals. An adapter: the
/// covered ids are remapped onto the distinct devices the pool touches and
/// the rows go through DominanceFilter.
std::vector<Candidate> filter_dominated(std::vector<Candidate> candidates,
                                        std::size_t num_devices);

/// Index form of the same filter, over a borrowed pointer pool: returns the
/// positions of the survivors *in survivor order* (the admission order of
/// the internal size/power/index sort — the order filter_dominated returns
/// them in). The key property the delta layer builds on: the outcome for a
/// candidate depends only on the multiset of candidates and the relative
/// input order of exact size/power ties, so a pool edit that preserves the
/// relative order of untouched candidates preserves their survivor-order
/// positions relative to each other. Null entries are not allowed.
std::vector<std::size_t> filter_dominated_indices(
    std::span<const Candidate* const> candidates, std::size_t num_devices);

}  // namespace hipo::pdcs
