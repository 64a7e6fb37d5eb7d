// Work-stealing thread pool for the parallel injection-campaign executor.
//
// Each ParallelFor splits [0, count) into one contiguous chunk per worker.
// A worker pops indices from the front of its own chunk; when its chunk runs
// dry it steals the back half of the largest-looking victim chunk. Ranges are
// packed {next, end} in a single 64-bit atomic so both pop and steal are one
// CAS — no locks on the hot path, and chunks stay contiguous, which keeps the
// per-run interpreter allocations cache-friendly.
//
// The calling thread participates as worker 0, so TaskPool(1) never spawns a
// thread and executes strictly serially on the caller — the property the
// determinism tests rely on to compare serial and parallel campaigns.

#ifndef WASABI_SRC_EXEC_TASK_POOL_H_
#define WASABI_SRC_EXEC_TASK_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wasabi {

// hardware_concurrency, never less than 1.
int DefaultJobCount();

// Cumulative per-worker execution counters, kept since construction (or the
// last ResetStats). Cheap enough to stay always-on: two clock reads per task
// and per idle stretch, against tasks that each run a whole interpreted test.
struct TaskPoolStats {
  struct Worker {
    uint64_t tasks = 0;   // Indices this worker executed.
    uint64_t steals = 0;  // Successful steals (tasks acquired from a victim).
    int64_t busy_us = 0;  // Time spent inside the task function.
    // One sample per contiguous stretch this worker spent looking for work
    // before acquiring a task — the queue-wait signal that separates "serial
    // phase" from "starved workers".
    std::vector<int64_t> queue_wait_us;
  };
  std::vector<Worker> workers;

  uint64_t total_tasks() const;
  uint64_t total_steals() const;
  int64_t total_busy_us() const;
};

class TaskPool {
 public:
  // `workers` is the TOTAL worker count including the calling thread;
  // <= 0 means DefaultJobCount().
  explicit TaskPool(int workers = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int worker_count() const { return worker_count_; }

  // Index of the pool worker executing the current task, valid inside a fn
  // passed to ParallelFor/ParallelForCaptured (the calling thread is worker 0).
  // Outside a task it returns the last index this thread ran as, or 0 on a
  // thread that never executed a task — callers use it only from inside tasks.
  static int CurrentWorker();

  // Runs fn(index) for every index in [0, count), distributed over the
  // workers, and blocks until all calls have returned. fn must be safe to
  // call concurrently for distinct indices. Rethrows the lowest-index
  // captured exception if any call threw. Not reentrant: one ParallelFor at
  // a time.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  // Like ParallelFor, but never throws on task failure: every index runs to
  // completion or to its own exception, and the result holds one slot per
  // index — null for success, the captured std::exception_ptr for failure.
  // Each index is executed exactly once, so the slot writes are race-free.
  // This is the seam the campaign layer's quarantine/retry machinery builds
  // on: a poisoned run keeps its identity instead of collapsing into a
  // pool-wide boolean.
  std::vector<std::exception_ptr> ParallelForCaptured(size_t count,
                                                      const std::function<void(size_t)>& fn);

  // Snapshot / reset of the execution counters. Only valid between
  // ParallelFor calls (ParallelFor's join provides the happens-before edge
  // that makes the unsynchronized per-worker fields safe to read).
  TaskPoolStats Stats() const;
  void ResetStats();

 private:
  // Packed index range owned by one worker: next in the high 32 bits, end in
  // the low 32. Padded to a cache line so pops and steals don't false-share.
  struct alignas(64) Slot {
    std::atomic<uint64_t> range{0};
  };

  // Per-worker counters, written only by the owning worker while a job runs
  // and read only after the job joins. Padded like the range slots.
  struct alignas(64) WorkerCounters {
    uint64_t tasks = 0;
    uint64_t steals = 0;
    int64_t busy_us = 0;
    std::vector<int64_t> queue_wait_us;
  };

  static uint64_t Pack(uint32_t next, uint32_t end) {
    return (static_cast<uint64_t>(next) << 32) | end;
  }
  static uint32_t RangeNext(uint64_t bits) { return static_cast<uint32_t>(bits >> 32); }
  static uint32_t RangeEnd(uint64_t bits) { return static_cast<uint32_t>(bits); }

  bool PopOwn(int worker, size_t* index);
  // Steals the back half of some victim's remaining range into `worker`'s own
  // slot and pops from it. False when every slot is empty.
  bool Steal(int worker, size_t* index);
  void RunJob(int worker);
  void WorkLoop(int worker);

  int worker_count_ = 1;
  std::vector<Slot> slots_;
  std::vector<WorkerCounters> counters_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable job_cv_;
  // Helpers currently inside RunJob, guarded by mutex_. A helper can still be
  // in RunJob after the previous job drained; ParallelForCaptured waits on
  // helpers_cv_ for this to reach 0 before it installs the next job, so no
  // helper ever steals from a range that is being installed.
  int helpers_in_job_ = 0;
  std::condition_variable helpers_cv_;
  const std::function<void(size_t)>* job_fn_ = nullptr;
  uint64_t job_generation_ = 0;
  std::atomic<size_t> job_pending_{0};  // Indices not yet fully executed.
  // Per-index exception slots for the running job. Each worker writes only
  // the slots of indices it executed (exactly once each), so no two threads
  // touch the same slot; the join in ParallelForCaptured orders the reads.
  std::vector<std::exception_ptr>* job_errors_ = nullptr;
  bool shutdown_ = false;
};

}  // namespace wasabi

#endif  // WASABI_SRC_EXEC_TASK_POOL_H_
