// Allocation guard for the simplex hot path: once an UpdatableLU has been
// through a refactorization and a run of pivots, repeating them — the
// steady state of a simplex run — must not touch the heap. This binary
// replaces the global operator new to count calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "linalg/decomp.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hslb::linalg {
namespace {

/// Basis-shaped CSC matrix: slack singletons plus sparse structural columns
/// with a dominant diagonal.
struct Basis {
  std::size_t n = 0;
  std::vector<std::size_t> start{0};
  std::vector<SparseEntry> entries;
};

Basis make_basis(Rng& rng, std::size_t n) {
  Basis b;
  b.n = n;
  for (std::size_t j = 0; j < n; ++j) {
    const bool slack = j % 3 != 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) {
        b.entries.push_back({i, slack ? -1.0 : rng.uniform(2.0, 4.0)});
      } else if (!slack && rng.uniform(0.0, 1.0) < 0.15) {
        b.entries.push_back({i, rng.uniform(-1.0, 1.0)});
      }
    }
    b.start.push_back(b.entries.size());
  }
  return b;
}

/// Entering columns and the basis positions they replace.
struct Pivot {
  std::size_t pos;
  Vector column;
};

std::vector<Pivot> make_pivots(Rng& rng, std::size_t n, std::size_t count) {
  std::vector<Pivot> out;
  for (std::size_t k = 0; k < count; ++k) {
    Pivot p{static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
            Vector(n, 0.0)};
    p.column[p.pos] = rng.uniform(2.0, 4.0);
    for (std::size_t i = 0; i < n; ++i)
      if (i != p.pos && rng.uniform(0.0, 1.0) < 0.2)
        p.column[i] = rng.uniform(-1.0, 1.0);
    out.push_back(std::move(p));
  }
  return out;
}

/// One simplex-like pivot: FTRAN of the entering column, the FT update,
/// then a BTRAN and a plain FTRAN into caller-owned buffers.
void run_pivots(UpdatableLU& lu, const std::vector<Pivot>& pivots,
                Vector& direction, Vector& row) {
  for (const Pivot& p : pivots) {
    std::copy(p.column.begin(), p.column.end(), direction.begin());
    lu.solve_entering(direction);
    ASSERT_EQ(lu.update(p.pos), UpdatableLU::UpdateResult::Ok);
    std::fill(row.begin(), row.end(), 0.0);
    row[p.pos] = 1.0;
    lu.solve_transpose(row);
    lu.solve(direction);
  }
}

TEST(LinalgAllocations, PivotsAndSameSizeRefactorizationDoNotAllocate) {
  Rng rng(17);
  const std::size_t n = 120;
  const Basis basis = make_basis(rng, n);
  const std::vector<Pivot> pivots = make_pivots(rng, n, 40);
  Vector direction(n), row(n);
  UpdatableLU lu;

  // Warm-up: two factorizations (the factor double-buffers, so each buffer
  // grows once) and one run of the pivot sequence.
  ASSERT_TRUE(lu.refactor(n, basis.start, basis.entries));
  ASSERT_TRUE(lu.refactor(n, basis.start, basis.entries));
  run_pivots(lu, pivots, direction, row);

  std::size_t before = g_allocations.load();
  const bool ok = lu.refactor(n, basis.start, basis.entries);
  std::size_t after = g_allocations.load();
  ASSERT_TRUE(ok);
  EXPECT_EQ(after - before, 0u) << "same-size refactorization allocated";

  before = g_allocations.load();
  run_pivots(lu, pivots, direction, row);
  after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "pivots allocated";
  EXPECT_EQ(lu.updates(), pivots.size());
}

TEST(LinalgAllocations, SparseLUSolvesDoNotAllocate) {
  Rng rng(29);
  const std::size_t n = 80;
  const Basis basis = make_basis(rng, n);
  SparseLU lu;
  ASSERT_TRUE(lu.refactor(n, basis.start, basis.entries));
  ASSERT_TRUE(lu.refactor(n, basis.start, basis.entries));
  Vector v(n, 1.0);
  lu.solve(v);
  lu.solve_transpose(v);

  const std::size_t before = g_allocations.load();
  const bool ok = lu.refactor(n, basis.start, basis.entries);
  for (int k = 0; k < 10; ++k) {
    lu.solve(v);
    lu.solve_transpose(v);
  }
  const std::size_t after = g_allocations.load();
  ASSERT_TRUE(ok);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace hslb::linalg
