#include "serve/reactor.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

namespace tbm::serve {

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

const char* Reactor::backend() {
#ifdef __linux__
  return "epoll";
#else
  return "poll";
#endif
}

Reactor::Reactor() {
  if (::pipe(wake_fds_) != 0) {
    wake_fds_[0] = wake_fds_[1] = -1;
  } else {
    SetNonBlocking(wake_fds_[0]);
    SetNonBlocking(wake_fds_[1]);
  }
#ifdef __linux__
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ >= 0 && wake_fds_[0] >= 0) {
    struct epoll_event ev;
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // id 0 = the wake pipe.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev);
  }
#endif
  loop_ = std::thread([this] { Loop(); });
  loop_thread_id_.store(loop_.get_id());
}

Reactor::~Reactor() { Stop(); }

void Reactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && !loop_.joinable()) return;
    running_ = false;
  }
  Wake();
  if (loop_.joinable()) loop_.join();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Reactor::Wake() {
  if (wake_fds_[1] >= 0) {
    uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void Reactor::MarkReady(uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ready_.insert(id);
  }
  Wake();
}

uint64_t Reactor::Register(Transport* transport, Handler* handler,
                           uint32_t interest) {
  uint64_t id;
  int fd = transport->fd();
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    entries_[id] = Entry{transport, handler, interest, fd};
  }
  if (fd >= 0) {
#ifdef __linux__
    struct epoll_event ev;
    ev.events = ((interest & kTransportReadable) ? EPOLLIN : 0u) |
                ((interest & kTransportWritable) ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
#endif
    // poll backend rebuilds its fd set every iteration; nothing to do.
    Wake();
  } else {
    // In-process transport: readiness arrives via the waker. Seed one
    // evaluation so already-buffered bytes are noticed.
    transport->SetWaker([this, id] { MarkReady(id); });
    MarkReady(id);
  }
  return id;
}

void Reactor::UpdateInterest(uint64_t id, uint32_t interest) {
  int fd = -1;
  Transport* transport = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    it->second.interest = interest;
    fd = it->second.fd;
    transport = it->second.transport;
  }
  (void)transport;
  if (fd >= 0) {
#ifdef __linux__
    struct epoll_event ev;
    ev.events = ((interest & kTransportReadable) ? EPOLLIN : 0u) |
                ((interest & kTransportWritable) ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
#endif
  } else {
    // Re-evaluate under the new mask — the transport may already be
    // ready in a direction we just started caring about.
    MarkReady(id);
  }
}

void Reactor::Deregister(uint64_t id) {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    entry = it->second;
    entries_.erase(it);
    pending_ready_.erase(id);
  }
  if (entry.fd >= 0) {
#ifdef __linux__
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, entry.fd, nullptr);
#endif
  } else if (entry.transport != nullptr) {
    entry.transport->SetWaker(nullptr);
  }
}

void Reactor::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void Reactor::PostDelayed(std::chrono::milliseconds delay,
                          std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    timers_.push(Timer{std::chrono::steady_clock::now() + delay,
                       next_timer_seq_++, std::move(fn)});
  }
  Wake();
}

int Reactor::ComputeTimeoutMs() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pending_ready_.empty() || !posted_.empty()) return 0;
  if (timers_.empty()) return -1;
  auto now = std::chrono::steady_clock::now();
  if (timers_.top().when <= now) return 0;
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                timers_.top().when - now)
                .count();
  return static_cast<int>(std::min<int64_t>(ms + 1, 60000));
}

void Reactor::WaitForEvents(int timeout_ms, std::vector<uint64_t>* out) {
#ifdef __linux__
  struct epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    uint64_t id = events[i].data.u64;
    if (id == 0) continue;  // Wake pipe; drained below.
    out->push_back(id);
  }
#else
  std::vector<struct pollfd> fds;
  std::vector<uint64_t> ids;
  fds.push_back({wake_fds_[0], POLLIN, 0});
  ids.push_back(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : entries_) {
      if (entry.fd < 0) continue;
      short events = static_cast<short>(
          ((entry.interest & kTransportReadable) ? POLLIN : 0) |
          ((entry.interest & kTransportWritable) ? POLLOUT : 0));
      fds.push_back({entry.fd, events, 0});
      ids.push_back(id);
    }
  }
  int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n > 0) {
    for (size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents != 0) out->push_back(ids[i]);
    }
  }
#endif
  // Drain the wake pipe regardless of which backend reported it.
  if (wake_fds_[0] >= 0) {
    uint8_t buf[256];
    while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
    }
  }
}

void Reactor::Dispatch(uint64_t id) {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;  // Deregistered mid-batch.
    entry = it->second;
  }
  uint32_t ready = entry.transport->Poll();
  // A closed transport is "ready" in every interested direction: the
  // handler must run its I/O to observe the error and tear down.
  if (ready & kTransportClosed) ready |= kTransportReadable | kTransportWritable;
  if ((ready & kTransportReadable) && (entry.interest & kTransportReadable)) {
    entry.handler->OnReadable();
  }
  // Re-check registration: OnReadable may have deregistered itself.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    entry = it->second;
  }
  if ((ready & (kTransportWritable | kTransportClosed)) &&
      (entry.interest & kTransportWritable)) {
    entry.handler->OnWritable();
  }
}

void Reactor::RunExpired() {
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (timers_.empty() ||
          timers_.top().when > std::chrono::steady_clock::now()) {
        break;
      }
      fn = timers_.top().fn;
      timers_.pop();
    }
    fn();
  }
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void Reactor::Loop() {
  std::vector<uint64_t> ready;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!running_) return;
    }
    ready.clear();
    WaitForEvents(ComputeTimeoutMs(), &ready);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!running_) return;
      // Fold in waker-marked (in-process) entries.
      for (uint64_t id : pending_ready_) ready.push_back(id);
      pending_ready_.clear();
    }
    std::sort(ready.begin(), ready.end());
    ready.erase(std::unique(ready.begin(), ready.end()), ready.end());
    for (uint64_t id : ready) Dispatch(id);
    RunExpired();
  }
}

}  // namespace tbm::serve
