#include "src/pdcs/candidate.hpp"

#include <algorithm>
#include <cstdint>

#include "src/util/error.hpp"

namespace hipo::pdcs {

namespace {

/// covered(a) ⊆ covered(b) and power(b, j) + eps >= power(a, j) for every j
/// of a, by a merge walk over both ascending id lists. Both forms of
/// dominance (Candidate and flat rows) run this one walk.
template <typename Id>
bool dominated_walk(const Id* a_ids, const double* a_powers, std::size_t na,
                    const Id* b_ids, const double* b_powers, std::size_t nb,
                    double eps) {
  if (na > nb) return false;
  std::size_t ib = 0;
  for (std::size_t ia = 0; ia < na; ++ia) {
    while (ib < nb && b_ids[ib] < a_ids[ia]) ++ib;
    if (ib == nb || b_ids[ib] != a_ids[ia]) return false;
    if (b_powers[ib] + eps < a_powers[ia]) return false;
  }
  return true;
}

}  // namespace

bool dominated_by(const Candidate& a, const Candidate& b, double eps) {
  return dominated_walk(a.covered.data(), a.powers.data(), a.covered.size(),
                        b.covered.data(), b.powers.data(), b.covered.size(),
                        eps);
}

void CoverRows::clear() {
  rows.clear();
  ids.clear();
  powers.clear();
}

void CoverRows::begin_row() {
  HIPO_ASSERT(ids.size() <= UINT32_MAX);
  rows.push_back({static_cast<std::uint32_t>(ids.size()), 0, 0.0});
}

void CoverRows::push(std::uint32_t id, double power) {
  Row& row = rows.back();
  ids.push_back(id);
  powers.push_back(power);
  ++row.count;
  row.total += power;
}

std::span<const std::uint32_t> DominanceFilter::run(const CoverRows& in,
                                                    std::size_t universe) {
  // Sort by decreasing coverage size, then decreasing total power: a row
  // can only be dominated by one at or before it in this order. The row
  // index makes the order strict, so the outcome does not depend on the
  // sort algorithm.
  HIPO_ASSERT(in.rows.size() <= UINT32_MAX);
  keys_.clear();
  for (std::size_t r = 0; r < in.rows.size(); ++r) {
    keys_.push_back({in.rows[r].count, static_cast<std::uint32_t>(r),
                     in.rows[r].total});
  }
  std::sort(keys_.begin(), keys_.end(), [](const Key& x, const Key& y) {
    if (x.size != y.size) return x.size > y.size;
    if (x.total != y.total) return x.total > y.total;
    return x.index < y.index;
  });

  // Masks are fixed-width over the id universe. Inverted id→kept-row index,
  // grown as survivors are admitted: a dominator must cover *every* id of
  // the row, so it is enough to test the kept rows covering the row's
  // least-popular id. Pairs with non-overlapping coverage never reach the
  // mask test, and the outcome is existential, so it equals a scan of all
  // kept rows.
  const std::size_t words = (universe + 63) / 64;
  mask_.assign(words, 0);
  kept_masks_.clear();
  if (kept_by_id_.size() < universe) kept_by_id_.resize(universe);
  for (std::size_t j = 0; j < universe; ++j) kept_by_id_[j].clear();
  kept_.clear();
  for (const Key& key : keys_) {
    if (key.size == 0) continue;
    const CoverRows::Row& row = in.rows[key.index];
    const std::uint32_t* ids = in.ids.data() + row.offset;
    std::fill(mask_.begin(), mask_.end(), 0);
    std::uint32_t rarest = ids[0];
    for (std::uint32_t k = 0; k < row.count; ++k) {
      const std::uint32_t j = ids[k];
      HIPO_ASSERT(j < universe);
      mask_[j / 64] |= std::uint64_t{1} << (j % 64);
      if (kept_by_id_[j].size() < kept_by_id_[rarest].size()) rarest = j;
    }
    bool dominated = false;
    for (std::uint32_t k : kept_by_id_[rarest]) {
      const std::uint64_t* other = kept_masks_.data() + k * words;
      bool subset = true;
      for (std::size_t w = 0; w < words && subset; ++w) {
        subset = (mask_[w] & ~other[w]) == 0;
      }
      if (!subset) continue;
      const CoverRows::Row& by = in.rows[kept_[k]];
      if (dominated_walk(ids, in.powers.data() + row.offset, row.count,
                         in.ids.data() + by.offset,
                         in.powers.data() + by.offset, by.count, 1e-12)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    const auto id = static_cast<std::uint32_t>(kept_.size());
    for (std::uint32_t k = 0; k < row.count; ++k) {
      kept_by_id_[ids[k]].push_back(id);
    }
    kept_.push_back(key.index);
    kept_masks_.insert(kept_masks_.end(), mask_.begin(), mask_.end());
  }
  return kept_;
}

std::vector<std::size_t> filter_dominated_indices(
    std::span<const Candidate* const> candidates, std::size_t num_devices) {
  // Dense local universe: the distinct devices actually covered by this
  // pool, so masks and the inverted index are sized by the pool and not by
  // `num_devices`. Subset tests and the rarest-device probe are invariant
  // under the order-preserving remap, so the survivor set is unchanged.
  std::vector<std::size_t> universe;
  for (const Candidate* c : candidates) {
    HIPO_ASSERT(c != nullptr);
    universe.insert(universe.end(), c->covered.begin(), c->covered.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  HIPO_ASSERT(universe.empty() || universe.back() < num_devices);

  CoverRows flat;
  flat.rows.reserve(candidates.size());
  for (const Candidate* c : candidates) {
    flat.begin_row();
    for (std::size_t k = 0; k < c->covered.size(); ++k) {
      const auto local = std::lower_bound(universe.begin(), universe.end(),
                                          c->covered[k]) -
                         universe.begin();
      flat.push(static_cast<std::uint32_t>(local), c->powers[k]);
    }
  }
  DominanceFilter filter;
  const auto kept = filter.run(flat, universe.size());
  return {kept.begin(), kept.end()};
}

std::vector<Candidate> filter_dominated(std::vector<Candidate> candidates,
                                        std::size_t num_devices) {
  std::vector<const Candidate*> ptrs;
  ptrs.reserve(candidates.size());
  for (const auto& c : candidates) ptrs.push_back(&c);
  const std::vector<std::size_t> kept_idx =
      filter_dominated_indices(ptrs, num_devices);
  std::vector<Candidate> kept;
  kept.reserve(kept_idx.size());
  for (std::size_t idx : kept_idx) kept.push_back(std::move(candidates[idx]));
  return kept;
}

}  // namespace hipo::pdcs
