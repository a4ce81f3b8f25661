#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace hslb {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      pool.parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  // The determinism contract the pipeline relies on: per-index seeding makes
  // the output independent of the thread count and execution order.
  auto draw = [](std::size_t i) {
    Rng rng(derive_seed(99, i));
    return rng.uniform();
  };
  ThreadPool serial(1), wide(8);
  const auto a = serial.parallel_map(100, draw);
  const auto b = wide.parallel_map(100, draw);
  EXPECT_EQ(a, b);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(10, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45u);
  }
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ConcurrentCallersSerializeWithoutInterference) {
  // Two external threads hammer one pool at once; every job must cover its
  // own index range exactly once (the allocation service batches pipeline
  // runs onto a shared pool this way).
  ThreadPool pool(4);
  constexpr int kRounds = 25;
  std::vector<std::atomic<int>> hits_a(97), hits_b(131);
  auto caller = [&](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    }
  };
  std::thread ta(caller, std::ref(hits_a));
  std::thread tb(caller, std::ref(hits_b));
  ta.join();
  tb.join();
  for (const auto& h : hits_a) EXPECT_EQ(h.load(), kRounds);
  for (const auto& h : hits_b) EXPECT_EQ(h.load(), kRounds);
}

TEST(ThreadPool, ConcurrentCallersPropagateTheirOwnExceptions) {
  ThreadPool pool(4);
  std::atomic<int> ok_sum{0};
  auto thrower = [&] {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                            if (i == 13) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
  };
  auto worker = [&] {
    for (int round = 0; round < 10; ++round)
      pool.parallel_for(32, [&](std::size_t) { ++ok_sum; });
  };
  std::thread ta(thrower), tb(worker);
  ta.join();
  tb.join();
  // The healthy caller's jobs were untouched by the neighbor's failure.
  EXPECT_EQ(ok_sum.load(), 320);
}

TEST(ThreadPool, ReentrantCallIsRejected) {
  // A body calling parallel_for on the pool running it would deadlock
  // behind its own job, so the pool rejects it loudly instead.
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4, [&](std::size_t) { pool.parallel_for(2, [](std::size_t) {}); }),
               ContractViolation);
  // ...including on the serial fast path, where it would silently recurse.
  ThreadPool serial(1);
  EXPECT_THROW(
      serial.parallel_for(
          1, [&](std::size_t) { serial.parallel_for(1, [](std::size_t) {}); }),
      ContractViolation);
  // Nesting across *different* pools stays legal.
  ThreadPool inner(2);
  std::atomic<int> count{0};
  pool.parallel_for(
      2, [&](std::size_t) { inner.parallel_for(3, [&](std::size_t) { ++count; }); });
  EXPECT_EQ(count.load(), 6);
  // ...but not reaching back into an outer pool through one.
  EXPECT_THROW(serial.parallel_for(1,
                                   [&](std::size_t) {
                                     inner.parallel_for(1, [&](std::size_t) {
                                       serial.parallel_for(1, [](std::size_t) {});
                                     });
                                   }),
               ContractViolation);
}

TEST(ThreadPoolLend, ScopeSetsAndRestoresIncludingWhenNested) {
  EXPECT_EQ(ThreadPool::lent(), nullptr);  // nothing is lent by default
  ThreadPool outer(2), inner(3);
  {
    const ThreadPool::Lend a(outer);
    EXPECT_EQ(ThreadPool::lent(), &outer);
    {
      const ThreadPool::Lend b(inner);
      EXPECT_EQ(ThreadPool::lent(), &inner);
    }
    EXPECT_EQ(ThreadPool::lent(), &outer);
  }
  EXPECT_EQ(ThreadPool::lent(), nullptr);
}

TEST(ThreadPoolLend, HiddenInsideJobsOfTheLentPool) {
  // parallel_for on the lent pool from inside its own job would reenter
  // it, so lent() reports nothing there — on the calling thread (which
  // runs indices too) and on the workers (which never saw the lend).
  ThreadPool pool(4);
  const ThreadPool::Lend lend(pool);
  std::vector<ThreadPool*> seen(64, &pool);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = ThreadPool::lent(); });
  for (ThreadPool* p : seen) EXPECT_EQ(p, nullptr);
  // A serial pool runs its job on the caller only: hidden there as well.
  ThreadPool serial(1);
  const ThreadPool::Lend lend_serial(serial);
  ThreadPool* in_job = &serial;
  serial.parallel_for(1, [&](std::size_t) { in_job = ThreadPool::lent(); });
  EXPECT_EQ(in_job, nullptr);
  EXPECT_EQ(ThreadPool::lent(), &serial);
}

TEST(ThreadPoolLend, HiddenInsideAnotherPoolNestedInTheLentPoolsJob) {
  // Lent pool A -> job of A -> job of B on the same thread: A is still
  // busy with the outer job, so it must stay hidden.
  ThreadPool a(1), b(1);
  const ThreadPool::Lend lend(a);
  ThreadPool* seen = &a;
  a.parallel_for(1, [&](std::size_t) {
    b.parallel_for(1, [&](std::size_t) { seen = ThreadPool::lent(); });
  });
  EXPECT_EQ(seen, nullptr);
}

TEST(ThreadPoolLend, VisibleOnlyOnTheLendingThread) {
  ThreadPool pool(2);
  const ThreadPool::Lend lend(pool);
  ThreadPool* elsewhere = &pool;
  std::thread other([&] { elsewhere = ThreadPool::lent(); });
  other.join();
  EXPECT_EQ(elsewhere, nullptr);
  EXPECT_EQ(ThreadPool::lent(), &pool);
}

TEST(ParallelForHelper, MatchesSerialLoop) {
  std::vector<int> serial(64), parallel(64);
  for (std::size_t i = 0; i < serial.size(); ++i)
    serial[i] = static_cast<int>(i * i);
  parallel_for(4, parallel.size(),
               [&](std::size_t i) { parallel[i] = static_cast<int>(i * i); });
  EXPECT_EQ(serial, parallel);
}

TEST(DeriveSeed, StreamsAreDistinct) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) seeds.push_back(derive_seed(42, s));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Same inputs, same seed; different base, different seed.
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

}  // namespace
}  // namespace hslb
