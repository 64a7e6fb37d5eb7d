// Unit tests for the work-stealing TaskPool underneath the campaign executor:
// exactly-once execution for every index, reuse of one pool across many jobs,
// serial (1-worker) inline mode, exception propagation, and worker-count
// resolution.

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/task_pool.h"

namespace wasabi {
namespace {

TEST(TaskPoolTest, DefaultJobCountIsAtLeastOne) {
  EXPECT_GE(DefaultJobCount(), 1);
}

TEST(TaskPoolTest, WorkerCountResolvesZeroToHardware) {
  TaskPool pool(0);
  EXPECT_EQ(pool.worker_count(), DefaultJobCount());
  TaskPool serial(1);
  EXPECT_EQ(serial.worker_count(), 1);
  TaskPool four(4);
  EXPECT_EQ(four.worker_count(), 4);
}

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    TaskPool pool(workers);
    const size_t kCount = 1000;
    std::vector<std::atomic<int>> counts(kCount);
    pool.ParallelFor(kCount, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i << " with " << workers << " workers";
    }
  }
}

TEST(TaskPoolTest, PoolIsReusableAcrossJobs) {
  // Many back-to-back jobs: a helper still leaving the previous job must not
  // touch the next job's ranges (the pool waits for it before installing).
  TaskPool pool(4);
  for (int job = 0; job < 50'000; ++job) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u) << "job " << job;
  }
}

TEST(TaskPoolTest, ZeroCountIsANoOp) {
  TaskPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(TaskPoolTest, CountSmallerThanWorkersStillRunsAll) {
  TaskPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(TaskPoolTest, SerialPoolRunsInlineOnCallingThread) {
  TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(10, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // Safe: single-threaded by contract.
  });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);  // Serial mode preserves index order.
  }
}

TEST(TaskPoolTest, ExceptionInTaskPropagatesAndPoolSurvives) {
  for (int workers : {1, 4}) {
    TaskPool pool(workers);
    EXPECT_THROW(
        pool.ParallelFor(100,
                         [&](size_t i) {
                           if (i == 37) {
                             throw std::runtime_error("boom");
                           }
                         }),
        std::runtime_error)
        << workers << " workers";
    // The pool must remain usable after a failed job.
    std::atomic<int> calls{0};
    pool.ParallelFor(10, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 10);
  }
}

// --- ParallelForCaptured: per-index exception capture --------------------------

TEST(TaskPoolTest, CapturedRunKeepsEveryExceptionInItsOwnSlot) {
  for (int workers : {1, 2, 4, 8}) {
    TaskPool pool(workers);
    std::vector<std::exception_ptr> errors =
        pool.ParallelForCaptured(100, [](size_t i) {
          if (i % 7 == 3) {
            throw std::runtime_error("fail " + std::to_string(i));
          }
        });
    ASSERT_EQ(errors.size(), 100u) << workers << " workers";
    for (size_t i = 0; i < errors.size(); ++i) {
      if (i % 7 == 3) {
        ASSERT_TRUE(errors[i]) << "index " << i << " with " << workers << " workers";
        try {
          std::rethrow_exception(errors[i]);
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(e.what(), "fail " + std::to_string(i));
        }
      } else {
        EXPECT_FALSE(errors[i]) << "index " << i << " with " << workers << " workers";
      }
    }
  }
}

TEST(TaskPoolTest, CapturedRunExecutesEveryIndexDespiteFailures) {
  // Unlike the throwing ParallelFor, a captured run must not let one failure
  // shadow the rest of the job: every index still executes exactly once.
  for (int workers : {1, 4}) {
    TaskPool pool(workers);
    std::vector<std::atomic<int>> counts(200);
    pool.ParallelForCaptured(200, [&](size_t i) {
      counts[i].fetch_add(1);
      if (i % 2 == 0) {
        throw std::runtime_error("boom");
      }
    });
    for (size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i << " with " << workers << " workers";
    }
  }
}

TEST(TaskPoolTest, CapturedRunContainsForeignExceptionTypes) {
  // Not derived from std::exception: only catch (...) can capture it, which
  // is exactly what the campaign's containment guarantee requires.
  TaskPool pool(4);
  std::vector<std::exception_ptr> errors =
      pool.ParallelForCaptured(10, [](size_t i) {
        if (i == 5) {
          throw 42;
        }
      });
  ASSERT_TRUE(errors[5]);
  EXPECT_THROW(std::rethrow_exception(errors[5]), int);
}

TEST(TaskPoolTest, CapturedRunWithZeroCountReturnsNoSlots) {
  TaskPool pool(4);
  EXPECT_TRUE(pool.ParallelForCaptured(0, [](size_t) {}).empty());
}

TEST(TaskPoolTest, PoolStaysUsableAfterCapturedFailures) {
  TaskPool pool(4);
  pool.ParallelForCaptured(50, [](size_t) { throw std::runtime_error("boom"); });
  std::atomic<int> calls{0};
  pool.ParallelFor(10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(TaskPoolTest, ThrowingParallelForRethrowsTheLowestIndexError) {
  // ParallelFor now delegates to the captured variant; the exception it
  // surfaces must be deterministic — the lowest failing index — not whichever
  // worker lost the race.
  for (int workers : {1, 4}) {
    TaskPool pool(workers);
    try {
      pool.ParallelFor(100, [](size_t i) {
        if (i == 23 || i == 71) {
          throw std::runtime_error("fail " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 23") << workers << " workers";
    }
  }
}

TEST(TaskPoolTest, LargeCountCompletesWithMoreWorkersThanHardware) {
  TaskPool pool(16);
  const size_t kCount = 100000;
  std::vector<std::atomic<int>> counts(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace wasabi
