#include "src/exec/task_pool.h"

#include <cassert>
#include <stdexcept>

namespace wasabi {

namespace {
// Written at task-execution entry points (RunJob, the serial fast path), read
// by task bodies that key per-worker state (e.g. TestRunner's warm interpreters).
thread_local int current_worker = 0;
}  // namespace

int TaskPool::CurrentWorker() { return current_worker; }

int DefaultJobCount() {
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

uint64_t TaskPoolStats::total_tasks() const {
  uint64_t total = 0;
  for (const Worker& worker : workers) {
    total += worker.tasks;
  }
  return total;
}

uint64_t TaskPoolStats::total_steals() const {
  uint64_t total = 0;
  for (const Worker& worker : workers) {
    total += worker.steals;
  }
  return total;
}

int64_t TaskPoolStats::total_busy_us() const {
  int64_t total = 0;
  for (const Worker& worker : workers) {
    total += worker.busy_us;
  }
  return total;
}

TaskPool::TaskPool(int workers) {
  worker_count_ = workers <= 0 ? DefaultJobCount() : workers;
  slots_ = std::vector<Slot>(static_cast<size_t>(worker_count_));
  counters_ = std::vector<WorkerCounters>(static_cast<size_t>(worker_count_));
  threads_.reserve(static_cast<size_t>(worker_count_ - 1));
  for (int w = 1; w < worker_count_; ++w) {
    threads_.emplace_back([this, w] { WorkLoop(w); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

bool TaskPool::PopOwn(int worker, size_t* index) {
  std::atomic<uint64_t>& range = slots_[static_cast<size_t>(worker)].range;
  uint64_t bits = range.load(std::memory_order_acquire);
  while (true) {
    uint32_t next = RangeNext(bits);
    uint32_t end = RangeEnd(bits);
    if (next >= end) {
      return false;
    }
    if (range.compare_exchange_weak(bits, Pack(next + 1, end), std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      *index = next;
      return true;
    }
  }
}

bool TaskPool::Steal(int worker, size_t* index) {
  for (int offset = 1; offset < worker_count_; ++offset) {
    int victim = (worker + offset) % worker_count_;
    std::atomic<uint64_t>& range = slots_[static_cast<size_t>(victim)].range;
    uint64_t bits = range.load(std::memory_order_acquire);
    while (true) {
      uint32_t next = RangeNext(bits);
      uint32_t end = RangeEnd(bits);
      if (next >= end) {
        break;  // Victim is empty; try the next one.
      }
      // Take the back half (rounded up, so a 1-element range is stealable).
      uint32_t take = (end - next + 1) / 2;
      uint32_t split = end - take;
      if (!range.compare_exchange_weak(bits, Pack(next, split), std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        continue;  // Lost a race against the owner or another thief; re-read.
      }
      // Own the stolen range [split, end). Our own slot is empty (Steal only
      // runs after PopOwn failed) and only this thread installs into it, so a
      // plain store is safe; other thieves may immediately steal from it.
      slots_[static_cast<size_t>(worker)].range.store(Pack(split + 1, end),
                                                      std::memory_order_release);
      *index = split;
      return true;
    }
  }
  return false;
}

void TaskPool::RunJob(int worker) {
  using Clock = std::chrono::steady_clock;
  current_worker = worker;
  WorkerCounters& counters = counters_[static_cast<size_t>(worker)];
  // Counter writes are ordered before this worker's next job_pending_
  // fetch_sub (release), and ParallelFor returns only after job_pending_
  // reads 0 (acquire), so a post-join Stats() read races with nothing. The
  // one write NOT followed by a fetch_sub — the trailing idle stretch after a
  // worker's last task — is deliberately never recorded (see below).
  bool idle = false;
  Clock::time_point idle_since;
  while (job_pending_.load(std::memory_order_acquire) > 0) {
    size_t index;
    bool own = PopOwn(worker, &index);
    bool stolen = !own && Steal(worker, &index);
    if (own || stolen) {
      if (idle) {
        // A stretch that ended in work is a queue wait; trailing idle while
        // the job drains is not (and recording it would race with the join).
        counters.queue_wait_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - idle_since)
                .count());
        idle = false;
      }
      if (stolen) {
        ++counters.steals;
      }
      Clock::time_point task_start = Clock::now();
      try {
        (*job_fn_)(index);
      } catch (...) {
        // Keep the failure's identity: index `index` ran exactly once, so
        // this slot write races with nothing.
        (*job_errors_)[index] = std::current_exception();
      }
      counters.busy_us +=
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - task_start)
              .count();
      ++counters.tasks;
      job_pending_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      if (!idle) {
        idle = true;
        idle_since = Clock::now();
      }
      std::this_thread::yield();
    }
  }
}

void TaskPool::WorkLoop(int worker) {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_cv_.wait(lock, [&] { return shutdown_ || job_generation_ != seen_generation; });
      if (shutdown_) {
        return;
      }
      seen_generation = job_generation_;
      ++helpers_in_job_;
    }
    RunJob(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --helpers_in_job_;
    }
    helpers_cv_.notify_one();
  }
}

void TaskPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  std::vector<std::exception_ptr> errors = ParallelForCaptured(count, fn);
  // Rethrow the lowest-index failure so the escaping exception is the same
  // one a serial loop would have raised first.
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

std::vector<std::exception_ptr> TaskPool::ParallelForCaptured(
    size_t count, const std::function<void(size_t)>& fn) {
  std::vector<std::exception_ptr> errors(count);
  if (count == 0) {
    return errors;
  }
  if (worker_count_ == 1) {
    // Strictly serial on the calling thread; no scheduling at all. Counters
    // are still maintained so --jobs 1 metrics stay meaningful.
    using Clock = std::chrono::steady_clock;
    current_worker = 0;
    WorkerCounters& counters = counters_[0];
    for (size_t i = 0; i < count; ++i) {
      Clock::time_point task_start = Clock::now();
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      counters.busy_us +=
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - task_start)
              .count();
      ++counters.tasks;
    }
    return errors;
  }
  assert(count <= UINT32_MAX);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    helpers_cv_.wait(lock, [&] { return helpers_in_job_ == 0; });
    job_fn_ = &fn;
    job_errors_ = &errors;
    job_pending_.store(count, std::memory_order_release);
    // One contiguous chunk per worker; the imbalance is what stealing fixes.
    size_t base = count / static_cast<size_t>(worker_count_);
    size_t remainder = count % static_cast<size_t>(worker_count_);
    size_t begin = 0;
    for (int w = 0; w < worker_count_; ++w) {
      size_t length = base + (static_cast<size_t>(w) < remainder ? 1 : 0);
      slots_[static_cast<size_t>(w)].range.store(
          Pack(static_cast<uint32_t>(begin), static_cast<uint32_t>(begin + length)),
          std::memory_order_release);
      begin += length;
    }
    ++job_generation_;
  }
  job_cv_.notify_all();
  RunJob(0);  // The caller is worker 0; returns once every index completed.
  return errors;
}

TaskPoolStats TaskPool::Stats() const {
  TaskPoolStats stats;
  stats.workers.reserve(counters_.size());
  for (const WorkerCounters& counters : counters_) {
    TaskPoolStats::Worker worker;
    worker.tasks = counters.tasks;
    worker.steals = counters.steals;
    worker.busy_us = counters.busy_us;
    worker.queue_wait_us = counters.queue_wait_us;
    stats.workers.push_back(std::move(worker));
  }
  return stats;
}

void TaskPool::ResetStats() {
  for (WorkerCounters& counters : counters_) {
    counters.tasks = 0;
    counters.steals = 0;
    counters.busy_us = 0;
    counters.queue_wait_us.clear();
  }
}

}  // namespace wasabi
