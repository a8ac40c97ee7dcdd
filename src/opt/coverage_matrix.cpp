#include "src/opt/coverage_matrix.hpp"

#include <cstring>
#include <limits>

#include "src/util/error.hpp"

namespace hipo::opt {

CoverageMatrix::CoverageMatrix(std::span<const pdcs::Candidate> candidates,
                               std::size_t num_devices) {
  std::vector<const pdcs::Candidate*> ptrs;
  ptrs.reserve(candidates.size());
  for (const auto& c : candidates) ptrs.push_back(&c);
  build(ptrs, num_devices);
}

CoverageMatrix::CoverageMatrix(
    std::span<const pdcs::Candidate* const> candidates,
    std::size_t num_devices) {
  build(candidates, num_devices);
}

void CoverageMatrix::build(std::span<const pdcs::Candidate* const> candidates,
                           std::size_t num_devices) {
  std::size_t nnz = 0;
  for (const auto* c : candidates) {
    HIPO_ASSERT(c != nullptr);
    nnz += c->covered.size();
  }
  HIPO_REQUIRE(nnz <= std::numeric_limits<std::uint32_t>::max(),
               "coverage matrix exceeds u32 entry capacity");
  // The AVX2 row kernels gather per-device data with *signed* 32-bit
  // indices, so device ids must stay below 2^31. Far above any realistic
  // scenario (ids are u32 anyway), but enforced rather than assumed.
  HIPO_REQUIRE(num_devices < (std::size_t{1} << 31),
               "coverage matrix device count exceeds i32 gather range");

  row_start_.assign(1, 0);
  row_start_.reserve(candidates.size() + 1);
  device_arena_.clear();
  device_arena_.reserve(nnz);
  power_arena_.clear();
  power_arena_.reserve(nnz);
  row_strategy_.clear();
  row_strategy_.reserve(candidates.size());
  for (const auto* c : candidates) {
    HIPO_ASSERT(c->covered.size() == c->powers.size());
    for (std::size_t k = 0; k < c->covered.size(); ++k) {
      const std::size_t j = c->covered[k];
      HIPO_ASSERT(j < num_devices);
      device_arena_.push_back(static_cast<std::uint32_t>(j));
      power_arena_.push_back(c->powers[k]);
    }
    row_start_.push_back(static_cast<std::uint32_t>(device_arena_.size()));
    row_strategy_.push_back(c->strategy);
  }
  rebuild_inverted_index(num_devices);
}

void CoverageMatrix::rebuild_inverted_index(std::size_t num_devices) {
  const std::size_t nnz = device_arena_.size();
  std::vector<std::uint32_t> dev_count(num_devices, 0);
  for (std::uint32_t j : device_arena_) {
    HIPO_ASSERT(j < num_devices);
    ++dev_count[j];
  }
  dev_start_.assign(num_devices + 1, 0);
  for (std::size_t j = 0; j < num_devices; ++j) {
    dev_start_[j + 1] = dev_start_[j] + dev_count[j];
  }
  dev_rows_.resize(nnz);
  // Rows are visited ascending, so each device's row list comes out
  // ascending — the order the dirty sweep and the dominance filter rely on.
  std::vector<std::uint32_t> fill(dev_start_.begin(), dev_start_.end() - 1);
  for (std::size_t i = 0; i + 1 < row_start_.size(); ++i) {
    for (std::uint32_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
      dev_rows_[fill[device_arena_[e]]++] = static_cast<std::uint32_t>(i);
    }
  }
}

CoverageMatrixBuilder::CoverageMatrixBuilder(std::size_t num_devices)
    : num_devices_(num_devices) {
  HIPO_REQUIRE(num_devices < (std::size_t{1} << 31),
               "coverage matrix device count exceeds i32 gather range");
}

void CoverageMatrixBuilder::add_row(const model::Strategy& strategy,
                                    std::span<const std::uint32_t> covered,
                                    std::span<const double> powers) {
  HIPO_ASSERT(covered.size() == powers.size());
  HIPO_REQUIRE(matrix_.device_arena_.size() + covered.size() <=
                   std::numeric_limits<std::uint32_t>::max(),
               "coverage matrix exceeds u32 entry capacity");
  for (std::size_t k = 0; k < covered.size(); ++k) {
    HIPO_ASSERT(covered[k] < num_devices_);
    matrix_.device_arena_.push_back(covered[k]);
    matrix_.power_arena_.push_back(powers[k]);
  }
  matrix_.row_start_.push_back(
      static_cast<std::uint32_t>(matrix_.device_arena_.size()));
  matrix_.row_strategy_.push_back(strategy);
}

CoverageMatrix CoverageMatrixBuilder::finish() && {
  matrix_.rebuild_inverted_index(num_devices_);
  return std::move(matrix_);
}

void CoverageMatrix::mark_dead(std::size_t i) {
  HIPO_ASSERT(i < num_rows());
  if (dead_.empty()) dead_.assign(num_rows(), 0);
  if (dead_[i] == 0) {
    dead_[i] = 1;
    ++num_dead_;
  }
}

CoverageMatrix::PatchStats CoverageMatrix::apply_patch(
    std::span<const RowInsert> inserts, std::size_t new_num_devices,
    std::size_t removed_device) {
  HIPO_REQUIRE(new_num_devices < (std::size_t{1} << 31),
               "coverage matrix device count exceeds i32 gather range");
  const std::size_t old_rows = num_rows();
  const std::size_t kept_rows = old_rows - num_dead_;
  const std::size_t new_rows = kept_rows + inserts.size();

  PatchStats stats;
  stats.rows_erased = num_dead_;
  stats.rows_inserted = inserts.size();
  stats.rows_kept = kept_rows;

  for (std::size_t k = 0; k < inserts.size(); ++k) {
    const RowInsert& ins = inserts[k];
    HIPO_ASSERT(ins.candidate != nullptr);
    HIPO_ASSERT(ins.new_row < new_rows);
    if (k > 0) HIPO_ASSERT(inserts[k - 1].new_row < ins.new_row);
  }

  // Plan pass: new offsets, and whether every kept row moves left (the
  // in-place compaction precondition — a kept row whose destination sits
  // past its source would read arena data the splice already overwrote, so
  // any right move forces the staging path).
  std::vector<std::uint32_t> new_start;
  new_start.reserve(new_rows + 1);
  new_start.push_back(0);
  bool left_only = true;
  {
    std::size_t old_i = 0;  // old row cursor (skips dead rows)
    std::size_t ins_k = 0;  // insert cursor
    std::size_t write = 0;  // nnz offset in the new arenas
    for (std::size_t row = 0; row < new_rows; ++row) {
      if (ins_k < inserts.size() && inserts[ins_k].new_row == row) {
        write += inserts[ins_k].candidate->covered.size();
        ++ins_k;
      } else {
        while (old_i < old_rows && is_dead(old_i)) ++old_i;
        HIPO_ASSERT_MSG(old_i < old_rows,
                        "apply_patch: kept rows do not fill the gaps");
        if (write > row_start_[old_i]) left_only = false;
        write += row_start_[old_i + 1] - row_start_[old_i];
        ++old_i;
      }
      HIPO_REQUIRE(write <= std::numeric_limits<std::uint32_t>::max(),
                   "coverage matrix exceeds u32 entry capacity");
      new_start.push_back(static_cast<std::uint32_t>(write));
    }
    HIPO_ASSERT_MSG(ins_k == inserts.size(),
                    "apply_patch: insert rows past the end");
    while (old_i < old_rows && is_dead(old_i)) ++old_i;
    HIPO_ASSERT_MSG(old_i == old_rows,
                    "apply_patch: kept rows left over after the splice");
  }
  const std::size_t new_nnz = new_start.back();
  stats.in_place = left_only && new_nnz <= device_arena_.size();

  // Splice pass. The in-place variant walks forward: every kept row's
  // source offset is >= its destination (left_only), and inserts write
  // strictly below the source cursor, so forward moves never clobber
  // unread kept data. The staging variant writes fresh buffers and swaps.
  simd::avec<std::uint32_t> staged_dev;
  simd::avec<double> staged_pow;
  std::vector<model::Strategy> staged_strat(new_rows);
  if (!stats.in_place) {
    staged_dev.resize(new_nnz);
    staged_pow.resize(new_nnz);
  }
  std::uint32_t* dev_out =
      stats.in_place ? device_arena_.data() : staged_dev.data();
  double* pow_out = stats.in_place ? power_arena_.data() : staged_pow.data();

  {
    std::size_t old_i = 0;
    std::size_t ins_k = 0;
    for (std::size_t row = 0; row < new_rows; ++row) {
      std::uint32_t* dst_dev = dev_out + new_start[row];
      double* dst_pow = pow_out + new_start[row];
      if (ins_k < inserts.size() && inserts[ins_k].new_row == row) {
        const pdcs::Candidate& c = *inserts[ins_k].candidate;
        HIPO_ASSERT(c.covered.size() == c.powers.size());
        for (std::size_t k = 0; k < c.covered.size(); ++k) {
          HIPO_ASSERT(c.covered[k] < new_num_devices);
          dst_dev[k] = static_cast<std::uint32_t>(c.covered[k]);
          dst_pow[k] = c.powers[k];
        }
        staged_strat[row] = c.strategy;
        ++ins_k;
      } else {
        while (is_dead(old_i)) ++old_i;
        const std::uint32_t src = row_start_[old_i];
        const std::uint32_t len = row_start_[old_i + 1] - src;
        const std::uint32_t* src_dev = device_arena_.data() + src;
        const double* src_pow = power_arena_.data() + src;
        if (removed_device == kNoDevice) {
          // memmove: in-place source and destination may overlap.
          std::memmove(dst_dev, src_dev, len * sizeof(std::uint32_t));
          std::memmove(dst_pow, src_pow, len * sizeof(double));
        } else {
          // Column remap inline with the move (forward walk: src >= dst,
          // so reading src[k] before writing dst[k] is safe element-wise).
          for (std::uint32_t k = 0; k < len; ++k) {
            const std::uint32_t j = src_dev[k];
            HIPO_ASSERT_MSG(j != removed_device,
                            "kept row still covers the removed device");
            const double p = src_pow[k];
            dst_dev[k] = j > removed_device ? j - 1 : j;
            dst_pow[k] = p;
          }
        }
        staged_strat[row] = row_strategy_[old_i];
        ++old_i;
      }
    }
  }

  if (stats.in_place) {
    device_arena_.resize(new_nnz);
    power_arena_.resize(new_nnz);
  } else {
    device_arena_.swap(staged_dev);
    power_arena_.swap(staged_pow);
  }
  row_strategy_.swap(staged_strat);
  row_start_ = std::move(new_start);
  dead_.clear();
  num_dead_ = 0;
  rebuild_inverted_index(new_num_devices);
  return stats;
}

bool CoverageMatrix::same_as(const CoverageMatrix& other) const {
  if (num_dead_ != 0 || other.num_dead_ != 0) return false;
  if (row_start_ != other.row_start_ || dev_start_ != other.dev_start_ ||
      dev_rows_ != other.dev_rows_) {
    return false;
  }
  if (device_arena_.size() != other.device_arena_.size() ||
      power_arena_.size() != other.power_arena_.size()) {
    return false;
  }
  // Empty arenas skip the compares: their data() may be null, and memcmp on
  // a null pointer is undefined even for size 0.
  if (!device_arena_.empty() &&
      std::memcmp(device_arena_.data(), other.device_arena_.data(),
                  device_arena_.size() * sizeof(std::uint32_t)) != 0) {
    return false;
  }
  // Powers compared bitwise (memcmp), not numerically: the delta contract
  // is bit-identity, and -0.0 == 0.0 must not mask a divergence.
  if (!power_arena_.empty() &&
      std::memcmp(power_arena_.data(), other.power_arena_.data(),
                  power_arena_.size() * sizeof(double)) != 0) {
    return false;
  }
  if (row_strategy_.size() != other.row_strategy_.size()) return false;
  for (std::size_t i = 0; i < row_strategy_.size(); ++i) {
    const model::Strategy& a = row_strategy_[i];
    const model::Strategy& b = other.row_strategy_[i];
    if (std::memcmp(&a.pos, &b.pos, sizeof(a.pos)) != 0 ||
        std::memcmp(&a.orientation, &b.orientation,
                    sizeof(a.orientation)) != 0 ||
        a.type != b.type) {
      return false;
    }
  }
  return true;
}

}  // namespace hipo::opt
