// Fixed-size thread pool. Three users share the process-wide pool: the ML
// module runs each forward and backward pass of a CNN's trunk (its leading
// Conv2D/ReLU/MaxPool2D layers, ml::Trunk) as one call sharded over the
// samples of a batch and evaluates batches in parallel (the paper's HUs
// "can run multiple operations in parallel to speed up the simulation",
// §4), and the synthetic image generator paints its samples in parallel. Results are
// reduced in deterministic index order, so parallelism never changes
// numerical output.
//
// parallel_for is a helping join, so calls nest without deadlock: the
// caller claims indices itself, and it only ever waits for indices another
// thread has already started.
//
// An idle worker polls for its next task for up to a millisecond before it
// blocks, and a caller polls as long for its last indices to finish.
// Sharded calls come in bursts, and a blocked thread costs each call a
// wake-up that, on a virtual machine, waits until the host runs the halted
// vCPU again: the busier the host, the longer.
//
// This is the only place in the tree allowed to construct std::thread
// (enforced by rr-lint's `raw-thread` rule). Shared state is annotated for
// clang's -Wthread-safety and exercised by the ThreadSanitizer CI lane.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace roadrunner::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker. Together with busy()
  /// this exposes the pool's utilization (idle workers = size() - busy())
  /// for schedulers and telemetry gauges. Snapshot values: both can change
  /// the instant the lock is released.
  [[nodiscard]] std::size_t pending() const RR_EXCLUDES(mutex_);

  /// Workers currently executing a task.
  [[nodiscard]] std::size_t busy() const RR_EXCLUDES(mutex_);

  /// Runs fn(i) for every i in [0, count) and blocks until all complete.
  /// A helping join:
  ///  * The caller claims indices like a worker does. At most size()
  ///    indices of one call run at once, the caller counting as one, so a
  ///    pool of N workers bounds a call at N concurrent jobs.
  ///  * Only a call that is alone gets workers to help: one that starts
  ///    while another thread is inside a parallel_for of this pool runs on
  ///    its caller only. Concurrent callers (say, several in-flight
  ///    trainings) thus add no pool threads on top of their own.
  ///  * A call made from a worker of this pool runs inline on that worker.
  ///  * Completion counts indices; the call's state lives on the heap, so a
  ///    shard task that starts after the caller returned touches neither
  ///    fn nor the caller's stack.
  ///  * Shard tasks no worker started are withdrawn before the call
  ///    returns: pending() counts none of them afterwards.
  ///  * Exceptions from fn propagate (first one wins); the remaining
  ///    indices still run, so the pool is immediately reusable after a
  ///    throw (see tests/thread_pool_stress_test.cpp).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      RR_EXCLUDES(mutex_);

  /// Enqueues one fire-and-forget task (the distributed campaign worker
  /// runs its job this way while the calling thread keeps heartbeating).
  /// The task must not throw — there is no join point to deliver the
  /// exception to; catch inside and hand the error back through shared
  /// state. Tasks still pending at destruction run to completion first.
  void submit(std::function<void()> task) RR_EXCLUDES(mutex_);

  /// Process-wide pool, sized from hardware concurrency, built on first use
  /// (C++ magic static: concurrent first calls are safe).
  static ThreadPool& global();

 private:
  struct Batch;  // one parallel_for call's claim counter and completion

  /// A queued unit of work: a submitted task, or one shard of a batch.
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Batch> batch;
  };

  /// At most max_pollers workers poll for tasks at once (the rest block).
  void worker_loop(std::size_t max_pollers);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::deque<Task> tasks_ RR_GUARDED_BY(mutex_);
  // tasks_.size(), stored under mutex_, for workers polling without it.
  std::atomic<std::size_t> queued_{0};
  // Workers polling for a task right now.
  std::atomic<std::size_t> pollers_{0};
  std::condition_variable_any cv_;
  std::size_t busy_ RR_GUARDED_BY(mutex_) = 0;
  // Non-worker threads currently inside a parallel_for of this pool.
  std::size_t callers_ RR_GUARDED_BY(mutex_) = 0;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
};

}  // namespace roadrunner::util
