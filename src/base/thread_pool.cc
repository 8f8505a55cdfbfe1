#include "base/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace tbm {

namespace {

std::atomic<void (*)(int64_t)> g_on_queue_depth{nullptr};
std::atomic<void (*)(uint64_t, uint64_t)> g_on_task_done{nullptr};

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReportDepth(size_t depth) {
  if (auto* hook = g_on_queue_depth.load(std::memory_order_relaxed)) {
    hook(static_cast<int64_t>(depth));
  }
}

}  // namespace

ThreadPoolHooks ThreadPool::InstallHooks(const ThreadPoolHooks& hooks) {
  ThreadPoolHooks previous;
  previous.on_queue_depth = g_on_queue_depth.exchange(
      hooks.on_queue_depth, std::memory_order_relaxed);
  previous.on_task_done =
      g_on_task_done.exchange(hooks.on_task_done, std::memory_order_relaxed);
  return previous;
}

ThreadPool::ThreadPool(int threads) {
  threads = std::max(threads, 1);
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(QueuedTask{std::move(task), MonotonicNs()});
    ReportDepth(queue_.size());
  }
  cv_.notify_one();
}

int ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

int ThreadPool::DefaultThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
      // Reported under the lock so reports land in queue order: a
      // stale depth can never overwrite a newer one.
      ReportDepth(queue_.size());
    }
    auto* done = g_on_task_done.load(std::memory_order_relaxed);
    if (done == nullptr) {
      task.fn();
      continue;
    }
    const int64_t start_ns = MonotonicNs();
    task.fn();
    const int64_t end_ns = MonotonicNs();
    done(static_cast<uint64_t>(
             std::max<int64_t>(0, start_ns - task.enqueue_ns) / 1000),
         static_cast<uint64_t>(std::max<int64_t>(0, end_ns - start_ns) / 1000));
  }
}

}  // namespace tbm
