#include "serve/transport.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#ifdef __unix__
#include <poll.h>
#endif

#include "base/macros.h"

namespace tbm::serve {

namespace {

/// One direction of a loopback connection: a bounded byte FIFO.
/// All operations are non-blocking; callers learn about transitions
/// through the endpoint wakers the channel fires after every mutation.
class ByteQueue {
 public:
  explicit ByteQueue(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)) {}

  /// Appends as much of `data` as fits. Returns bytes accepted, or
  /// IOError when closed.
  Result<size_t> TryPush(ByteSpan data) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::IOError("transport closed");
    size_t take = std::min(capacity_ - bytes_.size(), data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.begin() + take);
    return take;
  }

  /// Pops up to `n` bytes. Returns bytes transferred (0 = empty, try
  /// later), or IOError once closed *and* drained — buffered bytes
  /// written before the close are still delivered.
  Result<size_t> TryPop(uint8_t* out, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (bytes_.empty()) {
      if (closed_) return Status::IOError("transport closed");
      return static_cast<size_t>(0);
    }
    size_t take = std::min(bytes_.size(), n);
    std::copy_n(bytes_.begin(), take, out);
    bytes_.erase(bytes_.begin(), bytes_.begin() + take);
    return take;
  }

  bool readable() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !bytes_.empty() || closed_;
  }

  bool writable() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !closed_ && bytes_.size() < capacity_;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<uint8_t> bytes_;
  bool closed_ = false;
};

/// Shared state of a loopback pair: one queue per direction plus the
/// two endpoint wakers. Both endpoints hold shared ownership, so
/// either side may outlive the other.
struct LoopbackChannel {
  explicit LoopbackChannel(size_t capacity)
      : a_to_b(capacity), b_to_a(capacity) {}

  ByteQueue a_to_b;
  ByteQueue b_to_a;

  std::mutex waker_mu;
  std::function<void()> waker_a;
  std::function<void()> waker_b;
  /// Parked WaitFor callers wait here; WakeBoth broadcasts. Any
  /// number of threads may park concurrently (e.g. a connection pump
  /// waiting readable while a writer waits writable), which is what
  /// the single waker slot cannot serve.
  std::condition_variable ready_cv;

  void SetWaker(bool endpoint_a, std::function<void()> waker) {
    std::lock_guard<std::mutex> lock(waker_mu);
    (endpoint_a ? waker_a : waker_b) = std::move(waker);
  }

  /// Fires both endpoint wakers. Any mutation may unblock either side
  /// (a push makes the peer readable, a pop makes the pusher writable,
  /// a close wakes everyone), and spurious wakes are allowed, so we
  /// don't try to be precise. Wakers are copied out and invoked
  /// without holding waker_mu — they may themselves take locks.
  void WakeBoth() {
    std::function<void()> a, b;
    {
      std::lock_guard<std::mutex> lock(waker_mu);
      a = waker_a;
      b = waker_b;
    }
    if (a) a();
    if (b) b();
    ready_cv.notify_all();
  }

  void CloseAll() {
    a_to_b.Close();
    b_to_a.Close();
    WakeBoth();
  }
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(std::shared_ptr<LoopbackChannel> channel, bool endpoint_a)
      : channel_(std::move(channel)), endpoint_a_(endpoint_a) {}

  ~LoopbackTransport() override {
    Close();
    // Drop our waker so the channel never calls into freed state.
    channel_->SetWaker(endpoint_a_, nullptr);
  }

  Result<size_t> ReadSome(uint8_t* out, size_t n) override {
    auto got = rx().TryPop(out, n);
    if (got.ok() && *got > 0) channel_->WakeBoth();
    return got;
  }

  Result<size_t> WriteSome(ByteSpan data) override {
    auto sent = tx().TryPush(data);
    if (sent.ok() && *sent > 0) channel_->WakeBoth();
    return sent;
  }

  uint32_t Poll() const override {
    uint32_t ready = 0;
    if (rx().readable()) ready |= kTransportReadable;
    if (tx().writable()) ready |= kTransportWritable;
    if (rx().closed() || tx().closed()) ready |= kTransportClosed;
    return ready;
  }

  void SetWaker(std::function<void()> waker) override {
    channel_->SetWaker(endpoint_a_, std::move(waker));
  }

  /// Parks on the channel's condition variable instead of the base
  /// class's sleep-poll loop: a thousand blocked clients cost a
  /// thousand parked threads, not a thousand spinning ones. Holding
  /// waker_mu across the not-ready Poll() and into the wait closes
  /// the missed-wakeup window — WakeBoth must acquire waker_mu (to
  /// copy the wakers) before it notifies, so any state change after
  /// our Poll() snapshot notifies after we are parked.
  bool WaitFor(uint32_t want, std::chrono::milliseconds timeout) override {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock<std::mutex> lock(channel_->waker_mu);
    for (;;) {
      uint32_t ready = Poll();
      if (ready & want) return true;
      if (ready & kTransportClosed) return (want & kTransportReadable) != 0;
      if (channel_->ready_cv.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        uint32_t last = Poll();
        if (last & want) return true;
        if (last & kTransportClosed) return (want & kTransportReadable) != 0;
        return false;
      }
    }
  }

  /// Dropping either endpoint tears down the whole connection — a
  /// half-open loopback has no useful semantics.
  void Close() override { channel_->CloseAll(); }

 private:
  ByteQueue& tx() { return endpoint_a_ ? channel_->a_to_b : channel_->b_to_a; }
  ByteQueue& rx() { return endpoint_a_ ? channel_->b_to_a : channel_->a_to_b; }
  const ByteQueue& tx() const {
    return endpoint_a_ ? channel_->a_to_b : channel_->b_to_a;
  }
  const ByteQueue& rx() const {
    return endpoint_a_ ? channel_->b_to_a : channel_->a_to_b;
  }

  std::shared_ptr<LoopbackChannel> channel_;
  const bool endpoint_a_;
};

}  // namespace

/// Base implementation: park fd-backed transports in ::poll; sleep in
/// short slices otherwise (bounded staleness is acceptable for a
/// transport with no native wait — the loopback overrides this with a
/// condition-variable park, and the hot paths use the Reactor's
/// wakers).
bool Transport::WaitFor(uint32_t want, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    uint32_t ready = Poll();
    if (ready & want) return true;
    if (ready & kTransportClosed) {
      // Closed counts as "ready" for reads (the reader must observe
      // the EOF error) but not for writes, which can never succeed.
      return (want & kTransportReadable) != 0;
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
#ifdef __unix__
    int poll_fd = fd();
    if (poll_fd >= 0) {
      struct pollfd pfd;
      pfd.fd = poll_fd;
      pfd.events = static_cast<short>(
          ((want & kTransportReadable) ? POLLIN : 0) |
          ((want & kTransportWritable) ? POLLOUT : 0));
      pfd.revents = 0;
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(
                          left.count(), 100)));
      continue;
    }
#endif
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateLoopbackPair(const LoopbackOptions& options) {
  auto channel = std::make_shared<LoopbackChannel>(options.buffer_bytes);
  auto a = std::make_unique<LoopbackTransport>(channel, /*endpoint_a=*/true);
  auto b = std::make_unique<LoopbackTransport>(channel, /*endpoint_a=*/false);
  return {std::move(a), std::move(b)};
}

bool WaitReadable(Transport& transport, std::chrono::milliseconds timeout) {
  return transport.WaitFor(kTransportReadable, timeout);
}

bool WaitWritable(Transport& transport, std::chrono::milliseconds timeout) {
  return transport.WaitFor(kTransportWritable, timeout);
}

Status BlockingSend(Transport& transport, ByteSpan data,
                    std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  size_t sent = 0;
  while (sent < data.size()) {
    TBM_ASSIGN_OR_RETURN(
        size_t n,
        transport.WriteSome(ByteSpan(data.data() + sent, data.size() - sent)));
    sent += n;
    if (sent == data.size()) break;
    if (n == 0) {
      auto now = std::chrono::steady_clock::now();
      if (now >= deadline ||
          !WaitWritable(transport,
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now))) {
        return Status::ResourceExhausted(
            "send timed out: peer buffer full — slow consumer");
      }
    }
  }
  return Status::OK();
}

Status BlockingRecv(Transport& transport, uint8_t* out, size_t n,
                    std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  size_t got = 0;
  while (got < n) {
    TBM_ASSIGN_OR_RETURN(size_t r, transport.ReadSome(out + got, n - got));
    got += r;
    if (got == n) break;
    if (r == 0) {
      auto now = std::chrono::steady_clock::now();
      if (now >= deadline ||
          !WaitReadable(transport,
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now))) {
        return Status::ResourceExhausted("recv timed out waiting for peer");
      }
    }
  }
  return Status::OK();
}

Status WriteFrame(Transport& transport, ByteSpan payload,
                  std::chrono::milliseconds timeout) {
  // Prefix and payload leave in one write: two would put the prefix
  // in a TCP segment of its own and wake the peer twice per frame.
  Bytes wire(4 + payload.size());
  uint32_t length = static_cast<uint32_t>(payload.size());
  wire[0] = static_cast<uint8_t>(length);
  wire[1] = static_cast<uint8_t>(length >> 8);
  wire[2] = static_cast<uint8_t>(length >> 16);
  wire[3] = static_cast<uint8_t>(length >> 24);
  std::copy(payload.begin(), payload.end(), wire.begin() + 4);
  return BlockingSend(transport, wire, timeout);
}

Result<Bytes> ReadFrame(Transport& transport, uint32_t max_frame,
                        std::chrono::milliseconds timeout) {
  uint8_t prefix[4];
  TBM_RETURN_IF_ERROR(BlockingRecv(transport, prefix, 4, timeout));
  uint32_t length = static_cast<uint32_t>(prefix[0]) |
                    (static_cast<uint32_t>(prefix[1]) << 8) |
                    (static_cast<uint32_t>(prefix[2]) << 16) |
                    (static_cast<uint32_t>(prefix[3]) << 24);
  if (length > max_frame) {
    return Status::Corruption("frame length " + std::to_string(length) +
                              " exceeds limit " + std::to_string(max_frame));
  }
  Bytes payload(length);
  if (length > 0) {
    TBM_RETURN_IF_ERROR(
        BlockingRecv(transport, payload.data(), length, timeout));
  }
  return payload;
}

}  // namespace tbm::serve
