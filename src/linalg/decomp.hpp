// Matrix decompositions and linear solvers:
//   - Cholesky (SPD solves for the Levenberg-Marquardt normal equations),
//   - Householder QR (rank-revealing enough for our least-squares sizes),
//   - LU with partial pivoting (general square solves: simplex basis),
//   - SparseLU with Markowitz pivoting (simplex basis refactorization on
//     the sparse column view; solves skip exact zeros, so hypersparse
//     right-hand sides cost O(reached nonzeros), not O(n^2)),
//   - UpdatableLU: a SparseLU wrapped with Forrest-Tomlin column
//     replacement, so a simplex pivot updates the factors in place instead
//     of growing a product-form eta file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hslb::linalg {

/// Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix, refactored in place so repeated factorizations of one size (the
/// Levenberg-Marquardt inner loop) reuse its storage.
class Cholesky {
 public:
  /// Factors `a` into this object. Returns false when A is not
  /// (numerically) positive definite; the factor is then unusable until
  /// the next successful refactor.
  bool refactor(const Matrix& a);

  /// Solves A x = b in place: `bx` holds b on entry and x on return.
  void solve_in_place(std::span<double> bx) const;

  const Matrix& lower() const { return l_; }

 private:
  Matrix l_;
};

/// Householder QR factorization A = Q R for rows >= cols.
class QR {
 public:
  explicit QR(const Matrix& a);

  /// Least-squares solve: minimizes ||A x - b||_2. Requires full column
  /// rank (throws ContractViolation on numerically rank-deficient R).
  Vector solve(std::span<const double> b) const;

  /// Absolute value of the smallest diagonal entry of R (rank indicator).
  double min_abs_diag_r() const;

 private:
  Matrix qr_;           // Householder vectors below diagonal, R on/above
  Vector tau_;          // Householder coefficients
  std::size_t rows_, cols_;
};

/// LU factorization with partial pivoting: P A = L U.
class LU {
 public:
  /// Returns std::nullopt if A is singular to working precision.
  static std::optional<LU> factor(const Matrix& a, double pivot_tol = 1e-12);

  /// Solves A x = b.
  Vector solve(std::span<const double> b) const;

  /// Solves A^T x = b.
  Vector solve_transpose(std::span<const double> b) const;

 private:
  LU(Matrix lu, std::vector<std::size_t> perm)
      : lu_(std::move(lu)), perm_(std::move(perm)) {}
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Variable-length lists, one per index, packed into a single reusable
/// buffer: list i occupies data[beg(i), beg(i) + size(i)) with room up to
/// its capacity, and a list that outgrows its room moves to the end of the
/// buffer with doubled room. reset() keeps every buffer's capacity, so an
/// object refilled with lists of similar sizes allocates nothing. Spans
/// into the pool are invalidated by any push_back that moves a list.
template <typename T>
class ListPool {
 public:
  /// Empties the pool and lays out n empty lists, list i with room(i) slots.
  template <typename Room>
  void reset(std::size_t n, Room&& room) {
    beg_.resize(n);
    len_.assign(n, 0);
    cap_.resize(n);
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      beg_[i] = total;
      cap_[i] = room(i);
      total += cap_[i];
    }
    data_.resize(total);
  }

  std::size_t size(std::size_t i) const { return len_[i]; }
  std::span<T> list(std::size_t i) { return {data_.data() + beg_[i], len_[i]}; }
  std::span<const T> list(std::size_t i) const {
    return {data_.data() + beg_[i], len_[i]};
  }

  void push_back(std::size_t i, const T& v) {
    if (len_[i] == cap_[i]) grow(i);
    data_[beg_[i] + len_[i]++] = v;
  }

  void clear(std::size_t i) { len_[i] = 0; }

  /// Removes entry k of list i, keeping the order of the others.
  void erase(std::size_t i, std::size_t k) {
    T* const first = data_.data() + beg_[i];
    std::copy(first + k + 1, first + len_[i], first + k);
    --len_[i];
  }

 private:
  void grow(std::size_t i) {
    const std::size_t to = data_.size();
    const std::size_t room = std::max<std::size_t>(4, 2 * cap_[i]);
    data_.resize(to + room);
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(beg_[i]),
              data_.begin() + static_cast<std::ptrdiff_t>(beg_[i] + len_[i]),
              data_.begin() + static_cast<std::ptrdiff_t>(to));
    beg_[i] = to;
    cap_[i] = room;
  }

  std::vector<T> data_;
  std::vector<std::size_t> beg_, len_, cap_;
};

/// Sparse LU factorization with Markowitz pivoting.
///
/// Factors a square matrix given as sparse columns (the simplex basis: a
/// mix of structural columns and slack singletons). The pivot at each
/// elimination step minimizes the Markowitz count (r-1)(c-1) among entries
/// passing a relative threshold test, which keeps fill-in — and therefore
/// the flop count of every subsequent FTRAN/BTRAN — near the nonzero count
/// of the basis itself. Both solves skip exact zeros in the right-hand
/// side, so hypersparse inputs (a unit vector, a two-nonzero cut column)
/// touch only the entries they can reach.
///
/// L and U live in flat arrays (entries plus per-step offsets), and the
/// elimination's working copy, occupancy lists and scatter live in a
/// workspace owned by the object: refactoring an object in place reuses
/// all of it, so a simplex run that refactors bases of similar size and
/// fill allocates nothing after the first factorization. The solves work in
/// place on the caller's vector with scratch owned by the object.
class SparseLU {
 public:
  /// An empty (0 x 0) factorization; refactor() fills it.
  SparseLU() = default;

  /// Factors a fresh object from per-column entry lists. Returns
  /// std::nullopt when the matrix is singular to working precision (no
  /// entry passes the threshold test at some step).
  /// Each column's entries must carry strictly increasing row indices.
  static std::optional<SparseLU> factor(
      std::size_t n, const std::vector<std::vector<SparseEntry>>& cols,
      double threshold = 0.1);

  /// Factors the n x n matrix whose column j holds
  /// entries[col_start[j], col_start[j+1]) in place, reusing this object's
  /// storage. Each column's entries must carry strictly increasing row
  /// indices below n. Returns false when the matrix is singular to working
  /// precision; the previous factors are then left untouched.
  bool refactor(std::size_t n, std::span<const std::size_t> col_start,
                std::span<const SparseEntry> entries, double threshold = 0.1);

  /// Solves A x = b in place: v holds b (indexed by rows) on entry and x
  /// (indexed by columns) on return.
  void solve(std::span<double> v);

  /// Solves A^T x = b in place: v holds b (indexed by columns) on entry and
  /// x (indexed by rows) on return.
  void solve_transpose(std::span<double> v);

  /// Fill: stored nonzeros of L and U including the n pivots.
  std::size_t nnz() const { return f_.fill; }

 private:
  friend class UpdatableLU;

  /// One complete factorization, step k being the k-th elimination step.
  struct Factors {
    std::size_t n = 0;
    std::size_t fill = 0;
    std::vector<std::size_t> pivot_row;  ///< r_k, original row of step k
    std::vector<std::size_t> pivot_col;  ///< c_k, original column of step k
    std::vector<double> pivot;           ///< U diagonal of step k
    /// L column k: multipliers (original row i, m_ik), i pivotal later, at
    /// lent[lstart[k], lstart[k+1]).
    std::vector<std::size_t> lstart;
    std::vector<SparseEntry> lent;
    /// U row k: (original column j, u_kj), j pivotal later. U^T solve.
    std::vector<std::size_t> urstart;
    std::vector<SparseEntry> urent;
    /// U column of step k: (earlier step l, u_lk). Backward solve.
    std::vector<std::size_t> ucstart;
    std::vector<SparseEntry> ucent;

    std::span<const SparseEntry> lcol(std::size_t k) const {
      return {lent.data() + lstart[k], lstart[k + 1] - lstart[k]};
    }
    std::span<const SparseEntry> urow(std::size_t k) const {
      return {urent.data() + urstart[k], urstart[k + 1] - urstart[k]};
    }
    std::span<const SparseEntry> ucol(std::size_t k) const {
      return {ucent.data() + ucstart[k], ucstart[k + 1] - ucstart[k]};
    }
  };

  /// Elimination state, reused across refactor() calls.
  struct Workspace {
    Factors staged;  ///< factors under construction; swapped in on success
    ListPool<SparseEntry> work;    ///< active submatrix, column-wise
    ListPool<std::size_t> rowocc;  ///< columns that may hold row r (lazy)
    std::vector<std::size_t> rowcount, colcount;
    std::vector<std::uint8_t> row_done, col_done;
    std::vector<SparseEntry> mults;
    std::vector<std::size_t> singletons;
    std::vector<std::size_t> step_of_col, cursor;
    Scatter scatter{0};
  };

  Factors f_;
  Workspace ws_;
  Vector scratch_;  ///< solve scratch (size n)
};

/// Forrest-Tomlin updatable factorization of a simplex basis.
///
/// Wraps a fresh SparseLU in the maintained form B = L R^{-1} U: L is the
/// static lower factor of the initial Markowitz factorization, R a file of
/// row etas accumulated by updates, and U an upper factor kept triangular
/// under a mutable elimination order. Replacing basis column p:
///
///   1. the spike v = R L^{-1} a_q (captured by the preceding
///      solve_entering call) becomes the new column of U at p's step t;
///   2. step t cyclically permutes to the end of the elimination order, so
///      the old row t — now a below-diagonal row spike — is eliminated
///      against the interior rows it crosses; the multipliers become one
///      new row eta of R;
///   3. the new diagonal is what remains of the spike after that
///      elimination; when it is negligible next to the spike's scale the
///      update is rejected (Unstable) and the caller must refactorize.
///
/// Interior U rows are never modified numerically — only row/column t are
/// deleted (by generation stamps, lazily skipped in solves) and the spike
/// column inserted — which is what keeps fill growth near the spike nonzero
/// count instead of the O(m) a product-form eta pays on dense directions.
///
/// refactor() rebuilds the factors in place: the SparseLU inside, the U
/// row/column lists, the R-eta file and the update workspaces all keep
/// their storage, so a simplex run's pivots and same-size refactorizations
/// allocate nothing once the buffers have grown to the run's sizes.
class UpdatableLU {
 public:
  /// An empty (0 x 0) factorization; refactor() fills it.
  UpdatableLU() = default;

  /// Takes over a fresh factorization.
  explicit UpdatableLU(SparseLU&& base);

  /// Factors the basis whose column j holds entries[col_start[j],
  /// col_start[j+1]) in place (see SparseLU::refactor), dropping every
  /// update. Returns false when it is singular to working precision; the
  /// previous factors, updates included, are then left untouched.
  bool refactor(std::size_t n, std::span<const std::size_t> col_start,
                std::span<const SparseEntry> entries, double threshold = 0.1);

  /// Solves B x = b in place: v holds b (indexed by rows) on entry and x
  /// (indexed by basis positions) on return.
  void solve(std::span<double> v);

  /// Solves B^T x = b in place: v holds b (indexed by basis positions) on
  /// entry and x (indexed by rows) on return.
  void solve_transpose(std::span<double> v);

  /// solve() that also captures the post-L, post-R spike for a subsequent
  /// update() of whichever basis position the caller pivots on.
  void solve_entering(std::span<double> v);

  enum class UpdateResult { Ok, Unstable };

  /// Forrest-Tomlin replacement of basis column `basis_pos` with the column
  /// last passed to solve_entering. On Unstable the factorization is left
  /// invalid and the caller MUST refactorize from scratch.
  UpdateResult update(std::size_t basis_pos);

  /// Stored factor nonzeros: the fresh L+U fill plus everything updates
  /// appended (spike columns and row-eta terms; entries invalidated by
  /// updates still count — this is the storage-growth view the adaptive
  /// refactorization trigger watches).
  std::size_t nnz() const { return base_fill_ + update_fill_; }

  /// Fresh-factorization fill (L+U nonzeros incl. diagonals).
  std::size_t base_fill() const { return base_fill_; }

  /// Nonzeros appended by updates since factorization.
  std::size_t update_fill() const { return update_fill_; }

  /// Column replacements applied since factorization.
  std::size_t updates() const { return updates_; }

 private:
  /// One stored U entry with the partner's generation at insertion time; the
  /// entry is live while the stamp still matches (lazy deletion).
  struct UEntry {
    std::size_t other;  ///< partner step (column step in urows_, row in ucols_)
    double value;
    std::uint32_t gen;
  };

  /// Resets the update state to the fresh factors held in base_.
  void reset();

  /// y = R L^{-1} v in place, row-indexed (step s lives at v[lrow(s)]).
  void forward(std::span<double> v) const;

  /// U x = y along the current elimination order; x lands in v, indexed by
  /// basis position.
  void backward(std::span<double> v);

  std::size_t n_ = 0;
  std::size_t base_fill_ = 0;
  std::size_t update_fill_ = 0;
  std::size_t updates_ = 0;

  /// The fresh factors: static L (never modified by updates), the original
  /// row of each step (base_.f_.pivot_row) and each step's basis position
  /// (base_.f_.pivot_col, fixed for life).
  SparseLU base_;

  // R: row etas appended by updates, applied in order after L^{-1}. Eta e
  // eliminates step eta_target_[e]'s row with the (pivotal step, multiplier)
  // terms eta_terms_[eta_start_[e], eta_start_[e+1]).
  std::vector<std::size_t> eta_target_;
  std::vector<std::size_t> eta_start_;
  std::vector<SparseEntry> eta_terms_;

  // U in step space under a mutable elimination order.
  std::vector<double> diag_;
  std::vector<std::size_t> step_of_col_;  ///< inverse of base_.f_.pivot_col
  std::vector<std::uint32_t> rowgen_, colgen_;
  ListPool<UEntry> urows_, ucols_;
  std::vector<std::size_t> seq_;  ///< steps in current elimination order
  std::vector<std::size_t> pos_;  ///< position of each step within seq_

  // Spike captured by solve_entering (row-indexed, post L and R).
  Vector spike_;
  bool spike_valid_ = false;

  // update() workspaces and solve scratch.
  std::vector<double> rowval_;
  std::vector<std::uint8_t> inrow_;
  std::vector<std::pair<std::size_t, std::size_t>> heap_;  // (pos, step)
  Vector scratch_;
};

/// Convenience: least-squares solution via QR.
Vector lstsq(const Matrix& a, std::span<const double> b);

}  // namespace hslb::linalg
