#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace hli::support {

ThreadPool::ThreadPool(unsigned threads) {
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::submit(std::function<void()> job) {
  if (threads_.empty()) {
    execute(job);
    return 0;
  }
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(job));
    ++in_flight_;
    depth = queue_.size();
  }
  work_ready_.notify_one();
  return depth;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (error_) {
    const std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::run(const std::function<void(unsigned)>& job) {
  const unsigned lanes = thread_count() + 1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned lane = 1; lane < lanes; ++lane) {
      queue_.push([&job, lane] { job(lane); });
    }
    in_flight_ += lanes - 1;
  }
  work_ready_.notify_all();
  // The caller is lane 0: it does a full share of the work instead of
  // blocking, so a pool of N-1 threads really runs N execution lanes.
  execute([&job] { job(0); });
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained.
      job = std::move(queue_.front());
      queue_.pop();
    }
    execute(job);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::execute(const std::function<void()>& job) {
  try {
    job();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

}  // namespace hli::support
