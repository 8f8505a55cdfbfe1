#ifndef TBM_SERVE_REACTOR_H_
#define TBM_SERVE_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "serve/transport.h"

namespace tbm::serve {

/// Readiness-driven event loop: one thread multiplexing many
/// transports. Every transport is a kernel socket (TCP or the
/// loopback socketpair), registered by fd() with the kernel — epoll
/// on Linux, ::poll on other POSIX platforms (chosen at compile time
/// by platform) — level-triggered, so a handler that does not drain
/// is simply called again. Each pass dispatches on the readiness the
/// kernel reported; a self-pipe wakes the loop for posted work,
/// timers and Stop. One path drives kernel sockets and loopback tests
/// identically.
///
/// Threading contract:
///  - Handlers run on the loop thread, never concurrently.
///  - Register / Post / PostDelayed / Stop: any thread.
///  - UpdateInterest / Deregister: loop thread only (or after Stop),
///    which is what makes "handler currently running" vs "handler
///    being destroyed" trivially race-free.
///  - A registered Transport/Handler must outlive its registration.
class Reactor {
 public:
  /// Readiness callbacks, invoked on the loop thread. A closed
  /// transport reports readable (and writable, if write-interested)
  /// so the handler discovers the IOError and tears down.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void OnReadable() = 0;
    virtual void OnWritable() = 0;
  };

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Which readiness backend this build uses: "epoll" on Linux, "poll"
  /// elsewhere.
  static const char* backend();

  /// Registers a transport's fd(); `interest` is a mask of
  /// kTransportReadable / kTransportWritable. Returns the
  /// registration id.
  uint64_t Register(Transport* transport, Handler* handler,
                    uint32_t interest);

  /// Replaces the interest mask (loop thread only).
  void UpdateInterest(uint64_t id, uint32_t interest);

  /// Removes a registration (loop thread only, or after Stop). After
  /// return the handler will not be called again.
  void Deregister(uint64_t id);

  /// Runs `fn` on the loop thread, as soon as possible.
  void Post(std::function<void()> fn);

  /// Runs `fn` on the loop thread after at least `delay`.
  void PostDelayed(std::chrono::milliseconds delay, std::function<void()> fn);

  /// Stops the loop and joins the thread. Idempotent. Pending posted
  /// tasks and timers are discarded.
  void Stop();

  bool InLoop() const {
    return std::this_thread::get_id() == loop_thread_id_.load();
  }

 private:
  struct Entry {
    Handler* handler = nullptr;
    uint32_t interest = 0;
    int fd = -1;
  };

  struct Timer {
    std::chrono::steady_clock::time_point when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  /// One ready registration and the TransportReady bits the kernel
  /// reported for it (hang-up and error count as closed).
  struct ReadyEvent {
    uint64_t id;
    uint32_t ready;
  };

  void Loop();
  void Wake();
  /// Waits for kernel events up to `timeout_ms` (-1 = forever),
  /// appends each ready registration to `out`, and drains the wake
  /// pipe when the wait reported it.
  void WaitForEvents(int timeout_ms, std::vector<ReadyEvent>* out);
  void Dispatch(const ReadyEvent& event);
  int ComputeTimeoutMs();
  void RunExpired();

  mutable std::mutex mu_;
  std::map<uint64_t, Entry> entries_;
  std::vector<std::function<void()>> posted_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t next_id_ = 1;
  uint64_t next_timer_seq_ = 0;
  bool running_ = true;

  int wake_fds_[2] = {-1, -1};
  int epoll_fd_ = -1;

  std::thread loop_;
  std::atomic<std::thread::id> loop_thread_id_;
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_REACTOR_H_
