// Fixed-size thread pool with a parallel_for helper.
//
// Used by the parallel DGEMM kernel (S8) and available to library users.
// starvm runs its own workers (one per host core, serving any device) and
// does not use this pool; mixing the two would hide which "device"
// performed work.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pdl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1; 0 is clamped to hardware_concurrency).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [begin, end) across the pool; blocks until done.
  /// Work is divided into contiguous chunks, one per worker, which is the
  /// right shape for the dense kernels this pool serves.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    std::function<void()> work;
    std::promise<void> done;
    /// Submission time, for the queue-wait histogram (obs metrics).
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Job> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool sized to hardware concurrency, created on first use.
/// Callers that repeatedly fan out small kernels (dgemm_parallel per task)
/// share this instead of paying thread creation + join per call.
ThreadPool& global_pool();

}  // namespace pdl::util
