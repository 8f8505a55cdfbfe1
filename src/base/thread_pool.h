#ifndef TBM_BASE_THREAD_POOL_H_
#define TBM_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tbm {

/// Process-wide instrumentation hooks for every ThreadPool. `base/`
/// must stay below `obs/` in the layering, so the pool cannot record
/// into the metrics registry itself; instead obs installs these
/// callbacks once at static-initialization time (see obs/metrics.cc)
/// and every pool — the derivation engine's, the prefetch I/O pools,
/// the serve scheduler's — reports through them for free.
///
/// All callbacks may be invoked concurrently from many threads and
/// must be cheap and non-blocking. `on_queue_depth` runs with the
/// pool's queue lock held, so it must not call back into the pool.
struct ThreadPoolHooks {
  /// Queue depth after an enqueue or dequeue (tasks waiting, not
  /// counting ones already running).
  void (*on_queue_depth)(int64_t depth) = nullptr;

  /// A task finished; `run_us` is its execution time and `queue_us`
  /// the time it spent waiting in the queue, both microseconds.
  void (*on_task_done)(uint64_t queue_us, uint64_t run_us) = nullptr;
};

/// A fixed-size worker pool over a shared task queue.
///
/// This is the execution substrate of the derivation evaluation engine
/// (see derive/scheduler.h) and of parallel activity flows
/// (playback/activity.h). Tasks are plain closures; ordering across
/// tasks is unspecified, so callers sequence dependent work themselves
/// (the scheduler does this with dependency counts).
///
/// The pool is intentionally simple — a mutex-guarded deque and a
/// condition variable — because evaluation tasks are coarse (whole
/// derivation steps, typically milliseconds of media processing), so
/// queue contention is negligible compared to task cost.
class ThreadPool {
 public:
  /// Starts `threads` workers. `threads` must be >= 1; use
  /// DefaultThreads() to size from the hardware.
  explicit ThreadPool(int threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (the queue is unbounded); tasks run
  /// in FIFO dispatch order across whichever workers free up first.
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Tasks currently waiting in the queue (excludes running tasks).
  int queue_depth() const;

  /// Hardware concurrency, with a floor of 1 (hardware_concurrency()
  /// may report 0 on exotic platforms).
  static int DefaultThreads();

  /// Installs the process-wide hooks and returns the ones they
  /// replace. Intended to be called once, before any pool is busy
  /// (obs does so during static initialization); the slots are
  /// atomics, so a late install is safe, merely missing earlier
  /// events.
  static ThreadPoolHooks InstallHooks(const ThreadPoolHooks& hooks);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tbm

#endif  // TBM_BASE_THREAD_POOL_H_
