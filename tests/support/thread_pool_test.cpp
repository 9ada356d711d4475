// support::ThreadPool: the run() barrier the parallel loop runtime
// dispatches through (every lane, caller included, joined before return;
// first exception rethrown unchanged) and the submit() queue the compile
// fan-out and the hlid request workers use (FIFO depth, drain on
// destruction).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace hli::support {
namespace {

TEST(ThreadPoolTest, RunsEveryLaneIncludingCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::atomic<int>> hits(4);
  std::thread::id lane0;
  pool.run([&](unsigned lane) {
    hits[lane].fetch_add(1);
    if (lane == 0) lane0 = std::this_thread::get_id();
  });
  for (unsigned lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
  }
  EXPECT_EQ(lane0, std::this_thread::get_id());
}

TEST(ThreadPoolTest, RunIsReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 16; ++round) {
    pool.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 16 * 3);
}

TEST(ThreadPoolTest, FirstJobExceptionRethrownAfterJoin) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.run([&](unsigned lane) {
      if (lane == 2) throw std::runtime_error("lane 2 faulted");
      completed.fetch_add(1);
    });
    FAIL() << "expected the job exception to be rethrown";
  } catch (const std::exception& e) {
    EXPECT_EQ(std::string(e.what()), "lane 2 faulted");
  }
  // run() is a barrier even on error: the healthy lanes all finished.
  EXPECT_EQ(completed.load(), 3);
  // The error was collected: the next round starts clean.
  pool.run([&](unsigned) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  int hits = 0;
  pool.run([&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPoolTest, SubmitReturnsQueuedDepth) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  ThreadPool pool(1);
  // Occupy the only worker, so the next submits stay queued.
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  EXPECT_EQ(pool.submit([] {}), 1u);
  EXPECT_EQ(pool.submit([] { throw std::runtime_error("queued fault"); }),
            2u);
  EXPECT_EQ(pool.submit([] {}), 3u);
  release.store(true);
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // Rethrown once, then cleared.
}

TEST(ThreadPoolTest, DestructorRunsQueuedJobs) {
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  {
    ThreadPool pool(1);
    pool.submit([&] {
      while (!release.load()) std::this_thread::yield();
    });
    for (int i = 0; i < 8; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 0);  // All eight wait behind the blocked job.
    release.store(true);
  }  // No wait_idle(): the destructor alone must drain the queue.
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace hli::support
