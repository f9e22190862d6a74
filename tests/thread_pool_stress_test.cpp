// Stress tests for util::ThreadPool's exception path, completion handshake
// and helping join. These are the scenarios the ThreadSanitizer CI lane
// watches: a throwing task racing long-running tasks, the
// first-exception-wins contract, the pool staying deadlock-free and
// reusable afterwards, parallel_for nested on the pool's own workers and
// issued from many foreign threads at once, concurrent callers getting no
// helpers, shard tasks that start after their caller returned, and calls
// that find the workers polling or blocked. The 100x repetition is the
// point — the original completion handshake had a narrow window (notify
// after the waiter could already have destroyed the condition variable)
// that only a tight loop makes observable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace roadrunner::util {
namespace {

TEST(ThreadPoolStress, FirstExceptionWinsNoDeadlockPoolReusable) {
  ThreadPool pool{4};
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> executed{0};
    std::atomic<int> throwers_started{0};
    try {
      pool.parallel_for(32, [&](std::size_t i) {
        executed.fetch_add(1);
        if (i % 7 == 3) {
          // Several tasks throw; exactly one exception may escape.
          const int order = throwers_started.fetch_add(1);
          throw std::runtime_error{"boom " + std::to_string(order)};
        }
        // Long tasks interleave with the throwers: spin a little so the
        // exception is in flight while work is still being claimed.
        volatile std::size_t sink = 0;
        for (std::size_t k = 0; k < 2000; ++k) sink = sink + k;
        (void)sink;
      });
      FAIL() << "parallel_for must rethrow (round " << round << ")";
    } catch (const std::runtime_error& e) {
      // First exception wins: the message is one of the thrown ones.
      EXPECT_EQ(std::string{e.what()}.rfind("boom ", 0), 0U) << e.what();
    }
    // Exceptions do not cancel remaining indices: every task ran.
    EXPECT_EQ(executed.load(), 32) << "round " << round;
    EXPECT_GE(throwers_started.load(), 1) << "round " << round;

    // The pool must be immediately reusable with no residue: a clean
    // follow-up batch completes and touches every index exactly once.
    std::atomic<int> clean{0};
    pool.parallel_for(16, [&](std::size_t) { clean.fetch_add(1); });
    EXPECT_EQ(clean.load(), 16) << "round " << round;
    EXPECT_EQ(pool.pending(), 0U) << "round " << round;
  }
}

TEST(ThreadPoolStress, AllTasksThrow) {
  ThreadPool pool{3};
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](std::size_t) {
                            executed.fetch_add(1);
                            throw std::logic_error{"every task throws"};
                          }),
        std::logic_error);
    EXPECT_EQ(executed.load(), 8);
  }
}

TEST(ThreadPoolStress, SingleShardFallbackPropagates) {
  // count <= 1 runs inline on the caller; the contract must not differ.
  ThreadPool pool{2};
  EXPECT_THROW(
      pool.parallel_for(1, [](std::size_t) { throw std::domain_error{"x"}; }),
      std::domain_error);
  std::atomic<int> ran{0};
  pool.parallel_for(1, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolStress, ConcurrentParallelForFromManyClients) {
  // Two client threads sharing one pool: completion signals must never
  // cross wires (each waiter sees only its own batch). Uses a second pool
  // as the client driver so the test itself stays rr-lint clean.
  ThreadPool clients{2};
  ThreadPool shared{4};
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> total{0};
    clients.parallel_for(2, [&](std::size_t client) {
      for (int rep = 0; rep < 10; ++rep) {
        try {
          shared.parallel_for(12, [&](std::size_t i) {
            total.fetch_add(1);
            if (client == 0 && i == 5) throw std::runtime_error{"c0"};
          });
        } catch (const std::runtime_error&) {
          // client 0's throws must never surface in client 1's waits —
          // checked implicitly: client 1 reaching here would FAIL below.
          EXPECT_EQ(client, 0U);
        }
      }
    });
    EXPECT_EQ(total.load(), 2 * 10 * 12);
  }
}

TEST(ThreadPoolStress, EveryWorkerNestsOnItsOwnPool) {
  // Each worker (and the caller) issues parallel_for on the pool it runs
  // on: the workers' calls run inline, so nothing waits on a shard only a
  // blocked worker could run.
  ThreadPool pool{4};
  constexpr std::size_t kOuter = 16, kInner = 64;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallel_for(kOuter, [&](std::size_t o) {
      pool.parallel_for(kInner, [&](std::size_t i) {
        hits[o * kInner + i].fetch_add(1);
      });
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "round " << round;
    EXPECT_EQ(pool.pending(), 0U) << "round " << round;
  }

  // Fire-and-forget tasks nesting too: one per worker, all at once.
  std::atomic<int> inner{0};
  std::atomic<int> finished{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      pool.parallel_for(kInner, [&](std::size_t) { inner.fetch_add(1); });
      finished.fetch_add(1);
    });
  }
  while (finished.load() < static_cast<int>(pool.size())) {
    std::this_thread::yield();
  }
  EXPECT_EQ(inner.load(), static_cast<int>(pool.size() * kInner));
}

TEST(ThreadPoolStress, ManyForeignCallersWhileWorkersNest) {
  // 16 threads that are not workers of `shared` call it at once; every
  // index a worker picks up issues a nested call of its own.
  ThreadPool shared{4};
  constexpr int kCallers = 16;
  constexpr std::size_t kOuter = 24, kInner = 8;
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        shared.parallel_for(kOuter, [&](std::size_t) {
          shared.parallel_for(kInner, [&](std::size_t) { total.fetch_add(1); });
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), static_cast<long>(kCallers) * 5 * kOuter * kInner);
  EXPECT_EQ(shared.pending(), 0U);
}

TEST(ThreadPoolStress, CallerCountsAsOneOfSizeThreads) {
  // At most size() indices of one call run at once, the caller included:
  // what keeps a campaign at --workers jobs.
  ThreadPool pool{3};
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  pool.parallel_for(48, [&](std::size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds{300});
    running.fetch_sub(1);
  });
  EXPECT_LE(peak.load(), 3);
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPoolStress, OnlyALoneCallGetsHelpers) {
  // While this thread is inside a call on `pool`, a call from another
  // thread runs every index on its own caller, so concurrent callers never
  // stack pool workers on top of themselves.
  ThreadPool pool{3};
  ThreadPool driver{1};  // the second caller's thread
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread::id> ran_on(8);
    std::thread::id second_caller;
    std::atomic<bool> second_done{false};
    pool.parallel_for(1, [&](std::size_t) {
      driver.submit([&] {
        pool.parallel_for(ran_on.size(), [&](std::size_t i) {
          ran_on[i] = std::this_thread::get_id();
          std::this_thread::sleep_for(std::chrono::microseconds{200});
        });
        second_caller = std::this_thread::get_id();
        second_done.store(true);
      });
      while (!second_done.load()) std::this_thread::yield();
    });
    for (const auto& id : ran_on) EXPECT_EQ(id, second_caller);
    EXPECT_EQ(pool.pending(), 0U) << "round " << round;
  }
}

TEST(ThreadPoolStress, LateShardsNeverTouchAReturnedCall) {
  // The caller claims every index before the woken workers get there, so
  // their shard tasks start after the call (and its stack frame, and fn)
  // may be gone. Under TSan/ASan a late shard touching either is a report.
  ThreadPool pool{4};
  for (int round = 0; round < 100; ++round) {
    std::vector<int> out(4, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) + round);
    }
    EXPECT_EQ(pool.pending(), 0U) << "round " << round;
  }
}

TEST(ThreadPoolStress, CallsAcrossThePollWindowComplete) {
  // Idle workers poll for a task for about a millisecond, then block.
  // Calls that follow at once, inside the window and after it find their
  // helpers polling, polling, and blocked; a pool destroyed right after a
  // call stops workers that are still polling.
  ThreadPool pool{4};
  for (const auto gap : {std::chrono::microseconds{0},
                         std::chrono::microseconds{200},
                         std::chrono::microseconds{3000}}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<int> out(16, 0);
      pool.parallel_for(out.size(), [&](std::size_t i) {
        out[i] = static_cast<int>(i) * round;
      });
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i) * round);
      }
      EXPECT_EQ(pool.pending(), 0U);
      std::this_thread::sleep_for(gap);
    }
  }
  for (int round = 0; round < 20; ++round) {
    ThreadPool brief{3};
    std::atomic<int> ran{0};
    brief.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
  }
}

}  // namespace
}  // namespace roadrunner::util
