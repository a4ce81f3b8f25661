#include "linalg/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace hslb::linalg {

bool Cholesky::refactor(const Matrix& a) {
  HSLB_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix& l = l_;
  l.assign(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }
  return true;
}

void Cholesky::solve_in_place(std::span<double> bx) const {
  const std::size_t n = l_.rows();
  HSLB_EXPECTS(bx.size() == n);
  // Forward: L y = b, y overwriting b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = bx[i];
    for (std::size_t k = 0; k < i; ++k) v -= l_(i, k) * bx[k];
    bx[i] = v / l_(i, i);
  }
  // Backward: L^T x = y, x overwriting y.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = bx[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= l_(k, i) * bx[k];
    bx[i] = v / l_(i, i);
  }
}

QR::QR(const Matrix& a) : qr_(a), rows_(a.rows()), cols_(a.cols()) {
  HSLB_EXPECTS(rows_ >= cols_);
  tau_.assign(cols_, 0.0);
  for (std::size_t k = 0; k < cols_; ++k) {
    // Householder vector for column k over rows k..rows-1.
    double norm = 0.0;
    for (std::size_t i = k; i < rows_; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0 ? -norm : norm;
    const double v0 = qr_(k, k) - alpha;
    // Normalize so that the implicit v has v[k] = 1.
    for (std::size_t i = k + 1; i < rows_; ++i) qr_(i, k) /= v0;
    tau_[k] = -v0 / alpha;  // = 2 / (v^T v) with v[k]=1 normalization
    qr_(k, k) = alpha;      // R diagonal
    // Apply H = I - tau v v^T to remaining columns.
    for (std::size_t j = k + 1; j < cols_; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < rows_; ++i) s += qr_(i, k) * qr_(i, j);
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < rows_; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

double QR::min_abs_diag_r() const {
  double m = std::fabs(qr_(0, 0));
  for (std::size_t k = 1; k < cols_; ++k) m = std::min(m, std::fabs(qr_(k, k)));
  return m;
}

Vector QR::solve(std::span<const double> b) const {
  HSLB_EXPECTS(b.size() == rows_);
  HSLB_EXPECTS(min_abs_diag_r() > 1e-13 * (1.0 + std::fabs(qr_(0, 0))));
  Vector y(b.begin(), b.end());
  // Apply Q^T: product of Householder reflections in order.
  for (std::size_t k = 0; k < cols_; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < rows_; ++i) s += qr_(i, k) * y[i];
    s *= tau_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < rows_; ++i) y[i] -= s * qr_(i, k);
  }
  // Back-substitute R x = y[0..cols).
  Vector x(cols_);
  for (std::size_t kk = cols_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double v = y[k];
    for (std::size_t j = k + 1; j < cols_; ++j) v -= qr_(k, j) * x[j];
    x[k] = v / qr_(k, k);
  }
  return x;
}

std::optional<LU> LU::factor(const Matrix& a, double pivot_tol) {
  HSLB_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  // Singularity is judged relative to the matrix scale: an absolute
  // threshold misfires badly when entries span many orders of magnitude
  // (simplex bases mix +-1 slack columns with O(1e4) cut coefficients).
  double scale = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) scale = std::max(scale, std::fabs(lu(r, c)));
  pivot_tol = std::max(pivot_tol, 1e-11 * scale);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best <= pivot_tol) return std::nullopt;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(piv, j));
      std::swap(perm[k], perm[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double m = lu(i, k);
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= m * lu(k, j);
    }
  }
  return LU(std::move(lu), std::move(perm));
}

Vector LU::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  HSLB_EXPECTS(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
    y[i] = v;
  }
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = y[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= lu_(i, k) * x[k];
    x[i] = v / lu_(i, i);
  }
  return x;
}

Vector LU::solve_transpose(std::span<const double> b) const {
  // A^T x = b  with  P A = L U  =>  A^T = (P^T L U)^T = U^T L^T P.
  // Solve U^T z = b, then L^T w = z, then x = P^T w.
  const std::size_t n = lu_.rows();
  HSLB_EXPECTS(b.size() == n);
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(k, i) * z[k];
    z[i] = v / lu_(i, i);
  }
  Vector w(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = z[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= lu_(k, i) * w[k];
    w[i] = v;
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = w[i];
  return x;
}

std::optional<SparseLU> SparseLU::factor(
    std::size_t n, const std::vector<std::vector<SparseEntry>>& cols,
    double threshold) {
  HSLB_EXPECTS(cols.size() == n);
  std::vector<std::size_t> start(n + 1, 0);
  std::vector<SparseEntry> entries;
  for (std::size_t j = 0; j < n; ++j) {
    entries.insert(entries.end(), cols[j].begin(), cols[j].end());
    start[j + 1] = entries.size();
  }
  SparseLU lu;
  if (!lu.refactor(n, start, entries, threshold)) return std::nullopt;
  return lu;
}

bool SparseLU::refactor(std::size_t n, std::span<const std::size_t> col_start,
                        std::span<const SparseEntry> entries,
                        double threshold) {
  HSLB_EXPECTS(col_start.size() == n + 1);
  HSLB_EXPECTS(col_start[n] <= entries.size());
  // The elimination counts each (row, column) entry once: a repeated row
  // index would double-count its row and leave a stale entry behind,
  // silently corrupting the factors.
  for (std::size_t j = 0; j < n; ++j) {
    HSLB_EXPECTS(col_start[j] <= col_start[j + 1]);
    for (std::size_t t = col_start[j]; t < col_start[j + 1]; ++t) {
      HSLB_EXPECTS(entries[t].index < n);
      HSLB_EXPECTS(t == col_start[j] ||
                   entries[t].index > entries[t - 1].index);
    }
  }

  Workspace& w = ws_;
  Factors& f = w.staged;
  f.n = n;
  f.pivot_row.resize(n);
  f.pivot_col.resize(n);
  f.pivot.resize(n);
  f.lstart.resize(n + 1);
  f.urstart.resize(n + 1);
  f.lent.clear();
  f.urent.clear();

  // Working copy of the active submatrix, column-wise. rowocc lists, per
  // row, the columns that may still hold an entry in it (lazily cleaned:
  // entries killed by cancellation are skipped at use time).
  w.rowcount.assign(n, 0);
  w.colcount.assign(n, 0);
  double scale = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = col_start[j]; t < col_start[j + 1]; ++t) {
      if (entries[t].value == 0.0) continue;
      ++w.colcount[j];
      ++w.rowcount[entries[t].index];
      scale = std::max(scale, std::fabs(entries[t].value));
    }
  }
  w.work.reset(n, [&](std::size_t j) { return w.colcount[j]; });
  w.rowocc.reset(n, [&](std::size_t r) { return w.rowcount[r]; });
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = col_start[j]; t < col_start[j + 1]; ++t) {
      if (entries[t].value == 0.0) continue;
      w.work.push_back(j, entries[t]);
      w.rowocc.push_back(entries[t].index, j);
    }
  }
  const double abs_tol = std::max(1e-12, 1e-11 * scale);
  w.col_done.assign(n, 0);
  w.scatter.clear();
  w.scatter.resize(n);

  // Singleton columns pivot at zero Markowitz cost and produce no fill, so
  // they never need the full pivot scan. Simplex bases are dominated by
  // slack/selector singletons, and every elimination step can shrink more
  // columns to size one, so this stack handles almost every step; entries
  // are validated lazily at pop time (a column may have grown stale).
  w.singletons.clear();
  for (std::size_t j = 0; j < n; ++j)
    if (w.work.size(j) == 1) w.singletons.push_back(j);

  for (std::size_t k = 0; k < n; ++k) {
    f.lstart[k] = f.lent.size();
    f.urstart[k] = f.urent.size();
    std::size_t best_r = 0, best_c = 0;
    double best_v = 0.0;
    bool found = false;
    // Fast path: any singleton column whose entry clears the absolute
    // floor is an optimal (cost-0, fill-free) Markowitz pivot.
    while (!w.singletons.empty() && !found) {
      const std::size_t j = w.singletons.back();
      w.singletons.pop_back();
      if (w.col_done[j] || w.work.size(j) != 1) continue;  // stale entry
      const SparseEntry e = w.work.list(j)[0];
      if (std::fabs(e.value) < abs_tol) continue;  // leave to scan
      found = true;
      best_c = j;
      best_r = e.index;
      best_v = e.value;
    }
    // General Markowitz search: minimize (rowcount-1)(colcount-1) over the
    // entries passing both the relative column threshold and the absolute
    // singularity floor. Deterministic tie-break: larger magnitude, then
    // first seen (columns ascending, entries in storage order); a cost-0
    // pivot cannot be improved on, so the scan stops there.
    if (!found) {
      std::size_t best_cost = 0;
      for (std::size_t j = 0; j < n && (!found || best_cost > 0); ++j) {
        if (w.col_done[j] || w.work.size(j) == 0) continue;
        const auto col = w.work.list(j);
        double colmax = 0.0;
        for (const auto& e : col) colmax = std::max(colmax, std::fabs(e.value));
        const double accept = std::max(abs_tol, threshold * colmax);
        const std::size_t ccost = col.size() - 1;
        for (const auto& [r, v] : col) {
          if (std::fabs(v) < accept) continue;
          const std::size_t cost = (w.rowcount[r] - 1) * ccost;
          if (!found || cost < best_cost ||
              (cost == best_cost && std::fabs(v) > std::fabs(best_v))) {
            found = true;
            best_cost = cost;
            best_r = r;
            best_c = j;
            best_v = v;
          }
          if (best_cost == 0) break;
        }
      }
    }
    if (!found) return false;  // singular to working precision

    f.pivot_row[k] = best_r;
    f.pivot_col[k] = best_c;
    f.pivot[k] = best_v;
    w.col_done[best_c] = 1;

    // Multipliers from the pivot column's remaining active entries.
    w.mults.clear();
    for (const auto& [r, v] : w.work.list(best_c)) {
      if (r == best_r) continue;
      w.mults.push_back({r, v / best_v});
      --w.rowcount[r];
    }
    f.lent.insert(f.lent.end(), w.mults.begin(), w.mults.end());
    --w.rowcount[best_r];
    w.work.clear(best_c);

    if (w.mults.empty()) {
      // Fill-free elimination: dropping the pivot row from a column is a
      // plain erase; no scatter pass and no occupancy updates needed.
      for (const std::size_t j : w.rowocc.list(best_r)) {
        if (w.col_done[j]) continue;
        const auto wj = w.work.list(j);
        for (std::size_t t = 0; t < wj.size(); ++t) {
          if (wj[t].index != best_r) continue;
          f.urent.push_back({j, wj[t].value});
          w.work.erase(j, t);
          if (w.work.size(j) == 1) w.singletons.push_back(j);
          break;
        }
      }
      w.rowocc.clear(best_r);
      continue;
    }

    // Eliminate the pivot row from every column still holding it. Fill
    // appends to other rows' occupancy lists and may move them within the
    // pool, so row best_r's list is re-read by index on every iteration.
    for (std::size_t o = 0; o < w.rowocc.size(best_r); ++o) {
      const std::size_t j = w.rowocc.list(best_r)[o];
      if (w.col_done[j]) continue;
      double u = 0.0;
      bool present = false;
      for (const auto& [r, v] : w.work.list(j)) {
        if (r == best_r) {
          u = v;
          present = true;
          break;
        }
      }
      if (!present) continue;  // stale occupancy entry (cancelled earlier)
      f.urent.push_back({j, u});

      // column j := column j - (u / pivot) * pivot column, active rows only.
      // Existing rows scatter first, so pattern positions >= old_count are
      // fill-in that needs occupancy/count bookkeeping.
      w.scatter.clear();
      for (const auto& [r, v] : w.work.list(j)) {
        if (r != best_r) w.scatter.add(r, v);
      }
      const std::size_t old_count = w.scatter.pattern().size();
      for (const auto& [i, m] : w.mults) w.scatter.add(i, -m * u);
      w.work.clear(j);
      const auto pattern = w.scatter.pattern();
      for (std::size_t t = 0; t < pattern.size(); ++t) {
        const std::size_t r = pattern[t];
        const double v = w.scatter[r];
        const bool is_fill = t >= old_count;
        if (v == 0.0) {
          if (!is_fill) --w.rowcount[r];  // cancellation killed an entry
          continue;
        }
        if (is_fill) {
          ++w.rowcount[r];
          w.rowocc.push_back(r, j);
        }
        w.work.push_back(j, {r, v});
      }
      if (w.work.size(j) == 1) w.singletons.push_back(j);
    }
    // Row best_r is resolved; its occupancy list is dead weight now.
    w.rowocc.clear(best_r);
  }
  f.lstart[n] = f.lent.size();
  f.urstart[n] = f.urent.size();

  // The column-wise view of U (for the zero-skipping backward solve) is the
  // transpose of its rows, indexed by the step that pivoted each column;
  // walking the rows in step order keeps every column's entries ascending.
  w.step_of_col.resize(n);
  for (std::size_t k = 0; k < n; ++k) w.step_of_col[f.pivot_col[k]] = k;
  f.ucstart.assign(n + 1, 0);
  for (const SparseEntry& e : f.urent) ++f.ucstart[w.step_of_col[e.index] + 1];
  for (std::size_t k = 0; k < n; ++k) f.ucstart[k + 1] += f.ucstart[k];
  f.ucent.resize(f.urent.size());
  w.cursor.assign(f.ucstart.begin(), f.ucstart.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& [j, u] : f.urow(k))
      f.ucent[w.cursor[w.step_of_col[j]]++] = {k, u};
  }
  f.fill = n + f.lent.size() + f.urent.size();
  std::swap(f_, f);
  return true;
}

void SparseLU::solve(std::span<double> v) {
  const Factors& f = f_;
  HSLB_EXPECTS(v.size() == f.n);
  double* const b = v.data();
  // Forward: apply L^{-1} (skip steps whose pivot-row value is exactly 0 —
  // the hypersparsity fast path for unit/cut right-hand sides).
  for (std::size_t k = 0; k < f.n; ++k) {
    const double t = b[f.pivot_row[k]];
    if (t == 0.0) continue;
    for (const auto& [i, m] : f.lcol(k)) b[i] -= m * t;
  }
  // Backward: U x = y in scatter form, descending steps; x indexed by the
  // original column of each step.
  scratch_.resize(f.n);
  double* const x = scratch_.data();
  for (std::size_t kk = f.n; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    const double xv = b[f.pivot_row[k]] / f.pivot[k];
    x[f.pivot_col[k]] = xv;
    if (xv == 0.0) continue;
    for (const auto& [l, u] : f.ucol(k)) b[f.pivot_row[l]] -= u * xv;
  }
  std::copy(scratch_.begin(), scratch_.end(), v.begin());
}

void SparseLU::solve_transpose(std::span<double> v) {
  const Factors& f = f_;
  HSLB_EXPECTS(v.size() == f.n);
  double* const b = v.data();
  // U^T z = b in scatter form, ascending steps; z in step space.
  scratch_.resize(f.n);
  double* const z = scratch_.data();
  for (std::size_t k = 0; k < f.n; ++k) {
    const double zk = b[f.pivot_col[k]] / f.pivot[k];
    z[k] = zk;
    if (zk == 0.0) continue;
    for (const auto& [j, u] : f.urow(k)) b[j] -= u * zk;
  }
  // L^T w = z, descending steps, gather form; w overwrites b by original
  // row. Every row gathered from pivots later, so it is already written.
  for (std::size_t kk = f.n; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double val = z[k];
    for (const auto& [i, m] : f.lcol(k)) val -= m * b[i];
    b[f.pivot_row[k]] = val;
  }
}

UpdatableLU::UpdatableLU(SparseLU&& base) : base_(std::move(base)) { reset(); }

bool UpdatableLU::refactor(std::size_t n,
                           std::span<const std::size_t> col_start,
                           std::span<const SparseEntry> entries,
                           double threshold) {
  if (!base_.refactor(n, col_start, entries, threshold)) return false;
  reset();
  return true;
}

void UpdatableLU::reset() {
  const SparseLU::Factors& f = base_.f_;
  n_ = f.n;
  base_fill_ = f.fill;
  update_fill_ = 0;
  updates_ = 0;
  diag_.assign(f.pivot.begin(), f.pivot.end());
  seq_.resize(n_);
  pos_.resize(n_);
  step_of_col_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    seq_[k] = k;
    pos_[k] = k;
    step_of_col_[f.pivot_col[k]] = k;
  }
  rowgen_.assign(n_, 0);
  colgen_.assign(n_, 0);
  // Base U entries arrive column-wise as (earlier step l, u_lk); mirror them
  // into the row-wise view so row-spike elimination can walk row contents.
  ucols_.reset(n_, [&](std::size_t k) { return f.ucstart[k + 1] - f.ucstart[k]; });
  urows_.reset(n_, [&](std::size_t l) { return f.urstart[l + 1] - f.urstart[l]; });
  for (std::size_t k = 0; k < n_; ++k) {
    for (const auto& [l, u] : f.ucol(k)) {
      ucols_.push_back(k, {l, u, 0});
      urows_.push_back(l, {k, u, 0});
    }
  }
  eta_target_.clear();
  eta_start_.assign(1, 0);
  eta_terms_.clear();
  spike_.assign(n_, 0.0);
  spike_valid_ = false;
  rowval_.assign(n_, 0.0);
  inrow_.assign(n_, 0);
  heap_.clear();
}

void UpdatableLU::forward(std::span<double> v) const {
  const std::vector<std::size_t>& lrow = base_.f_.pivot_row;
  double* const b = v.data();
  // Zero pivot-row values skip their L column — the hypersparsity fast path.
  for (std::size_t k = 0; k < n_; ++k) {
    const double t = b[lrow[k]];
    if (t == 0.0) continue;
    for (const auto& [i, m] : base_.f_.lcol(k)) b[i] -= m * t;
  }
  for (std::size_t e = 0; e < eta_target_.size(); ++e) {
    double acc = 0.0;
    for (std::size_t i = eta_start_[e]; i < eta_start_[e + 1]; ++i)
      acc += eta_terms_[i].value * b[lrow[eta_terms_[i].index]];
    if (acc != 0.0) b[lrow[eta_target_[e]]] -= acc;
  }
}

void UpdatableLU::backward(std::span<double> v) {
  const std::vector<std::size_t>& lrow = base_.f_.pivot_row;
  const std::vector<std::size_t>& col_of_step = base_.f_.pivot_col;
  double* const b = v.data();
  scratch_.resize(n_);
  double* const x = scratch_.data();
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t s = seq_[kk - 1];
    const double xv = b[lrow[s]] / diag_[s];
    x[col_of_step[s]] = xv;
    if (xv == 0.0) continue;
    for (const UEntry& e : ucols_.list(s)) {
      if (e.gen == rowgen_[e.other]) b[lrow[e.other]] -= e.value * xv;
    }
  }
  std::copy(scratch_.begin(), scratch_.end(), v.begin());
}

void UpdatableLU::solve(std::span<double> v) {
  HSLB_EXPECTS(v.size() == n_);
  forward(v);
  backward(v);
}

void UpdatableLU::solve_entering(std::span<double> v) {
  HSLB_EXPECTS(v.size() == n_);
  forward(v);
  // The post-L, post-R vector IS the Forrest-Tomlin spike.
  std::copy(v.begin(), v.end(), spike_.begin());
  spike_valid_ = true;
  backward(v);
}

void UpdatableLU::solve_transpose(std::span<double> v) {
  HSLB_EXPECTS(v.size() == n_);
  const std::vector<std::size_t>& lrow = base_.f_.pivot_row;
  const std::vector<std::size_t>& col_of_step = base_.f_.pivot_col;
  double* const b = v.data();
  // U^T z = b along the elimination order, ascending; z in step space.
  scratch_.resize(n_);
  double* const z = scratch_.data();
  for (std::size_t kk = 0; kk < n_; ++kk) {
    const std::size_t s = seq_[kk];
    const double zk = b[col_of_step[s]] / diag_[s];
    z[s] = zk;
    if (zk == 0.0) continue;
    for (const UEntry& e : urows_.list(s)) {
      if (e.gen == colgen_[e.other]) b[col_of_step[e.other]] -= e.value * zk;
    }
  }
  // R^T: each eta (I - e_t m^T) transposes to z[s] -= m_s z[t], reverse order.
  for (std::size_t e = eta_target_.size(); e > 0; --e) {
    const double zt = z[eta_target_[e - 1]];
    if (zt == 0.0) continue;
    for (std::size_t i = eta_start_[e - 1]; i < eta_start_[e]; ++i)
      z[eta_terms_[i].index] -= eta_terms_[i].value * zt;
  }
  // L^T w = z, descending creation order, gather form; w overwrites b by
  // original row (every row gathered from is written earlier in the pass).
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double val = z[k];
    for (const auto& [i, m] : base_.f_.lcol(k)) val -= m * b[i];
    b[lrow[k]] = val;
  }
}

UpdatableLU::UpdateResult UpdatableLU::update(std::size_t basis_pos) {
  HSLB_EXPECTS(spike_valid_);
  HSLB_EXPECTS(basis_pos < n_);
  spike_valid_ = false;
  const std::vector<std::size_t>& lrow = base_.f_.pivot_row;
  // Steps keep their basis position for life, so the step to replace is a
  // direct inverse lookup.
  const std::size_t t = step_of_col_[basis_pos];

  // Live entries of row t seed the row-spike scatter; they are processed in
  // current elimination order (a min-heap on pos_), which is exactly the
  // order triangularity demands — fill from eliminating against row c only
  // lands at positions beyond pos_[c].
  const auto cmp = std::greater<std::pair<std::size_t, std::size_t>>{};
  heap_.clear();
  for (const UEntry& e : urows_.list(t)) {
    if (e.gen != colgen_[e.other]) continue;
    if (!inrow_[e.other]) {
      inrow_[e.other] = 1;
      rowval_[e.other] = e.value;
      heap_.emplace_back(pos_[e.other], e.other);
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    } else {
      rowval_[e.other] += e.value;
    }
  }
  // Row t and (old) column t are dead from here on; bumping the stamps
  // before eliminating keeps their stale entries out of the fill walk.
  ++rowgen_[t];
  ++colgen_[t];

  double newdiag = spike_[lrow[t]];
  double spike_max = 0.0;
  // The multipliers become the new row eta's terms, appended in place and
  // dropped again if the update is rejected.
  const std::size_t mark = eta_terms_.size();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const std::size_t c = heap_.back().second;
    heap_.pop_back();
    const double val = rowval_[c];
    rowval_[c] = 0.0;
    inrow_[c] = 0;
    if (val == 0.0) continue;
    const double mult = val / diag_[c];
    eta_terms_.push_back({c, mult});
    // Row c's entry in the incoming spike column cancels into the diagonal.
    newdiag -= mult * spike_[lrow[c]];
    for (const UEntry& e : urows_.list(c)) {
      if (e.gen != colgen_[e.other]) continue;
      if (!inrow_[e.other]) {
        inrow_[e.other] = 1;
        rowval_[e.other] = -mult * e.value;
        heap_.emplace_back(pos_[e.other], e.other);
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      } else {
        rowval_[e.other] -= mult * e.value;
      }
    }
  }

  for (std::size_t s = 0; s < n_; ++s)
    spike_max = std::max(spike_max, std::fabs(spike_[lrow[s]]));
  if (!std::isfinite(newdiag) ||
      std::fabs(newdiag) <= 1e-10 * std::max(1.0, spike_max)) {
    eta_terms_.resize(mark);
    return UpdateResult::Unstable;  // factorization now invalid
  }

  // Commit: new diagonal, spike column, cyclic permutation of t to the end.
  // The elimination left row t with only its diagonal, and the old column t
  // is fully replaced; drop both stored lists (their entries in OTHER
  // rows/columns die by the generation bumps, but the lists owned by t
  // itself carry stamps of the surviving partners and must go explicitly,
  // or a later re-update of this step would seed from ghost entries).
  diag_[t] = newdiag;
  urows_.clear(t);
  ucols_.clear(t);
  std::size_t added = 0;
  for (std::size_t s = 0; s < n_; ++s) {
    if (s == t) continue;
    const double v = spike_[lrow[s]];
    if (v == 0.0) continue;
    ucols_.push_back(t, {s, v, rowgen_[s]});
    urows_.push_back(s, {t, v, colgen_[t]});
    ++added;
  }
  const std::size_t old_pos = pos_[t];
  seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(old_pos));
  seq_.push_back(t);
  for (std::size_t i = old_pos; i < n_; ++i) pos_[seq_[i]] = i;

  const std::size_t terms = eta_terms_.size() - mark;
  update_fill_ += added + terms;
  if (terms > 0) {
    eta_target_.push_back(t);
    eta_start_.push_back(eta_terms_.size());
  }
  ++updates_;
  return UpdateResult::Ok;
}

Vector lstsq(const Matrix& a, std::span<const double> b) {
  return QR(a).solve(b);
}

}  // namespace hslb::linalg
