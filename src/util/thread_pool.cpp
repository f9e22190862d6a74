#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

namespace roadrunner::util {

namespace {

/// The pool whose worker loop runs on this thread (null elsewhere): a
/// parallel_for from one of its own workers runs inline.
thread_local const ThreadPool* t_worker_of = nullptr;

/// How long a thread with nothing to do polls before it blocks (see the
/// header): longer than the gap between two trunk passes of a paper-CNN
/// training step, in which the caller runs the head, the loss and the
/// optimizer step.
constexpr auto kPollFor = std::chrono::microseconds{1000};

/// Polls ready() for up to kPollFor, yielding between reads so that any
/// other runnable thread on the core goes first.
template <class Ready>
void poll_until(const Ready& ready) {
  const auto until = std::chrono::steady_clock::now() + kPollFor;
  while (!ready() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

}  // namespace

/// Shared by the caller and the shard tasks of one parallel_for. Indices
/// are claimed from `next`; fn is dereferenced only after a successful
/// claim, which the caller cannot outlive because it waits for `done` to
/// reach `count`.
struct ThreadPool::Batch {
  Batch(std::size_t n, const std::function<void(std::size_t)>& f)
      : count{n}, fn{&f} {}

  /// Claims and runs indices until none is left.
  void run() RR_EXCLUDES(mutex) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      std::exception_ptr thrown;
      try {
        (*fn)(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      if (thrown) {
        MutexLock lock{mutex};
        if (!error) error = std::move(thrown);
      }
      // The increment publishes error; taking the mutex before notifying
      // means a joiner that saw done < count under it is already waiting.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        MutexLock lock{mutex};
        done_cv.notify_all();
      }
    }
  }

  /// Waits until every index has run, then rethrows the first exception
  /// one of them threw. The exception is moved out, so a shard task that
  /// drops the last reference to the batch later never destroys it.
  void join() RR_EXCLUDES(mutex) {
    const auto finished = [&] {
      return done.load(std::memory_order_acquire) == count;
    };
    std::exception_ptr thrown;
    poll_until(finished);
    {
      MutexLock lock{mutex};
      while (!finished()) done_cv.wait(mutex);
      thrown = std::move(error);
    }
    if (thrown) std::rethrow_exception(thrown);
  }

  const std::size_t count;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  Mutex mutex;
  std::condition_variable_any done_cv;
  std::atomic<std::size_t> done{0};
  std::exception_ptr error RR_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, threads] { worker_loop(threads - 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock{mutex_};
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t max_pollers) {
  t_worker_of = this;
  for (;;) {
    // Poll for the next task before blocking, with at most size() - 1
    // workers at once: the pollers and one running caller fit on size()
    // cores.
    if (pollers_.fetch_add(1, std::memory_order_relaxed) < max_pollers) {
      poll_until([&] { return queued_.load(std::memory_order_relaxed) != 0; });
    }
    pollers_.fetch_sub(1, std::memory_order_relaxed);
    Task task;
    {
      MutexLock lock{mutex_};
      // Explicit wait loop (not the predicate overload): guarded reads stay
      // in this annotated scope, and condition_variable_any releases and
      // reacquires mutex_ itself.
      while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
      ++busy_;
    }
    if (task.batch) {
      task.batch->run();
    } else {
      task.fn();
    }
    {
      MutexLock lock{mutex_};
      --busy_;
    }
  }
}

std::size_t ThreadPool::pending() const {
  MutexLock lock{mutex_};
  return tasks_.size();
}

std::size_t ThreadPool::busy() const {
  MutexLock lock{mutex_};
  return busy_;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock{mutex_};
    tasks_.push_back(Task{std::move(task), nullptr});
    queued_.store(tasks_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const auto batch = std::make_shared<Batch>(count, fn);
  if (t_worker_of == this) {
    batch->run();
    batch->join();
    return;
  }

  // The caller is one of the (at most size()) threads running this batch,
  // and only a call that has the pool's callers to itself gets helpers (a
  // call nested in another on the same caller thread runs alone).
  std::size_t helpers = 0;
  {
    MutexLock lock{mutex_};
    if (++callers_ == 1) helpers = std::min(count, workers_.size()) - 1;
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.push_back(Task{nullptr, batch});
    }
    queued_.store(tasks_.size(), std::memory_order_relaxed);
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();

  batch->run();  // never throws: fn's exceptions are kept in the batch

  {
    // Every index is claimed: shard tasks still queued would find nothing.
    MutexLock lock{mutex_};
    --callers_;
    if (helpers > 0) {
      std::erase_if(tasks_, [&](const Task& t) { return t.batch == batch; });
      queued_.store(tasks_.size(), std::memory_order_relaxed);
    }
  }
  batch->join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace roadrunner::util
