// The one worker-thread primitive of the project: a fixed set of threads
// over a single mutex-guarded FIFO queue.  It serves three users with two
// entry points:
//
//   * submit()/wait_idle() — independent jobs: the compile fan-out of
//     driver::parallel_for / compile_many, and the hlid request workers
//     (service::Server submits one job per decoded Request frame);
//   * run(job) — a barrier over lanes: the parallel loop runtime calls
//     job(lane) for every lane, the caller running lane 0, and resumes
//     only after all of them finished.  One dispatch takes the lock once
//     and wakes the workers once.
//
// There is no work stealing: jobs are either coarse (a whole compile or
// request) or one per lane (run), so a shared queue loses nothing and
// stays simple and fair.
//
// Errors: an exception escaping a job is captured, the first one wins,
// and the next wait_idle() or run() rethrows it unchanged on the calling
// thread after the join — so an interpreter fault inside a parallel
// chunk surfaces exactly like a serial one.  Callers that need another
// rule catch inside their jobs: parallel_for reports the lowest failing
// index, hlid answers each failed request with an error frame.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hli::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers.  Zero is valid: run() then executes lane 0
  /// inline and submit() runs each job on the calling thread.
  explicit ThreadPool(unsigned threads);
  /// Runs every job still queued, then joins the workers.  A captured
  /// job exception nobody collected with wait_idle()/run() is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The hardware concurrency, clamped to at least 1.
  [[nodiscard]] static unsigned hardware_threads();

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueues a job and returns the queue depth right after the push
  /// (jobs waiting for a worker, this one included; 0 without workers).
  std::size_t submit(std::function<void()> job);

  /// Blocks until every submitted job has finished, then rethrows the
  /// first job exception captured since the last wait, if any.
  void wait_idle();

  /// Executes job(lane) for every lane in [0, thread_count()]; the caller
  /// runs lane 0.  Returns once the pool is idle (every lane, and any
  /// job submitted before, finished) and rethrows like wait_idle().
  void run(const std::function<void(unsigned)>& job);

 private:
  void worker_loop();
  /// Runs `job`, capturing an escaping exception as the pool's error.
  void execute(const std::function<void()>& job);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::queue<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< Queued + currently executing jobs.
  std::exception_ptr error_;   ///< First captured job exception.
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hli::support
