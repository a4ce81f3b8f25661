// Sparse matrix/vector kernels shared by the LP and MINLP layers.
//
// The MINLP allocations the HSLB models produce are structurally sparse:
// each selector binary appears in its task's SOS row, one linking row, and
// the budget row, so the constraint matrix holds O(3) nonzeros per column
// regardless of how many node counts a layout offers. Everything here is
// sized for that shape — compressed-sparse-column (CSC) primary storage, a
// transposed (CSR) companion for row-wise traversals, a triplet builder,
// and gather/scatter axpy building blocks for the simplex kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hslb::linalg {

/// One (index, value) entry of a sparse vector or of a matrix column/row.
struct SparseEntry {
  std::size_t index;
  double value;
};

/// One (row, col, value) coordinate for the triplet builder.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Immutable compressed-sparse-column matrix. Entries within a column are
/// stored with strictly increasing row indices; explicit zeros are dropped
/// by the builders, so nnz() counts genuine nonzeros only.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from coordinate triplets; duplicates at the same (row, col) are
  /// summed, and entries that sum to exactly zero are dropped.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  /// Builds from per-column entry lists (each list ordered by increasing
  /// row index, duplicate-free); exact zeros are dropped.
  static SparseMatrix from_columns(
      std::size_t rows, const std::vector<std::vector<SparseEntry>>& cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return col_start_.empty() ? 0 : col_start_.size() - 1; }
  std::size_t nnz() const { return entries_.size(); }

  /// Entries of column j, ordered by increasing row index.
  std::span<const SparseEntry> col(std::size_t j) const {
    HSLB_EXPECTS(j + 1 < col_start_.size());
    return {entries_.data() + col_start_[j], col_start_[j + 1] - col_start_[j]};
  }

  /// The transpose, i.e. the CSR view of this matrix: transposed().col(r)
  /// enumerates row r of *this ordered by increasing column index.
  SparseMatrix transposed() const;

  /// y = A x; x.size() must equal cols().
  Vector mul(std::span<const double> x) const;

  /// y = A^T x; x.size() must equal rows().
  Vector mul_transpose(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::size_t> col_start_;  // size cols()+1
  std::vector<SparseEntry> entries_;    // .index = row
};

/// Dense-value / explicit-pattern accumulator for scatter kernels: values
/// live in a dense array for O(1) random access while the list of touched
/// indices makes iteration and reset proportional to the nonzero count.
class Scatter {
 public:
  explicit Scatter(std::size_t n) : value_(n, 0.0), touched_(n, 0) {}

  std::size_t size() const { return value_.size(); }

  /// Resizes to n indices, keeping storage; requires a cleared accumulator.
  void resize(std::size_t n) {
    HSLB_EXPECTS(pattern_.empty());
    value_.resize(n, 0.0);
    touched_.resize(n, 0);
  }

  /// value[i] += v, recording i in the pattern on first touch.
  void add(std::size_t i, double v) {
    HSLB_EXPECTS(i < value_.size());
    if (!touched_[i]) {
      touched_[i] = 1;
      pattern_.push_back(i);
    }
    value_[i] += v;
  }

  double operator[](std::size_t i) const {
    HSLB_EXPECTS(i < value_.size());
    return value_[i];
  }

  /// Indices touched since the last clear(), in first-touch order.
  std::span<const std::size_t> pattern() const { return pattern_; }

  /// Resets touched values/pattern in O(pattern size), not O(n).
  void clear() {
    for (std::size_t i : pattern_) {
      value_[i] = 0.0;
      touched_[i] = 0;
    }
    pattern_.clear();
  }

 private:
  std::vector<double> value_;
  // Byte-wide occupancy: the simplex dual-repair row builder hammers add()
  // hard enough that std::vector<bool>'s bit masking shows up in profiles.
  std::vector<std::uint8_t> touched_;
  std::vector<std::size_t> pattern_;
};

/// y += s * x for a sparse x scattered into a dense y. Requires x's indices
/// ascending (every builder in this module emits them that way), which lets
/// the bounds contract collapse to one check on the last entry instead of a
/// throwing branch inside the hot loop.
inline void axpy_scatter(double s, std::span<const SparseEntry> x,
                         std::span<double> y) {
  if (x.empty()) return;
  HSLB_EXPECTS(x.back().index < y.size());
  double* const yd = y.data();
  for (const auto& [i, v] : x) yd[i] += s * v;
}

/// Dot product of a sparse x against a dense y (gather). Requires x's
/// indices ascending, like axpy_scatter; the two independent accumulators
/// let the multiply-add chains overlap instead of serializing on one sum.
inline double dot_gather(std::span<const SparseEntry> x,
                         std::span<const double> y) {
  if (x.empty()) return 0.0;
  HSLB_EXPECTS(x.back().index < y.size());
  const double* const yd = y.data();
  const std::size_t nx = x.size();
  double acc0 = 0.0, acc1 = 0.0;
  std::size_t k = 0;
  for (; k + 1 < nx; k += 2) {
    acc0 += x[k].value * yd[x[k].index];
    acc1 += x[k + 1].value * yd[x[k + 1].index];
  }
  if (k < nx) acc0 += x[k].value * yd[x[k].index];
  return acc0 + acc1;
}

}  // namespace hslb::linalg
