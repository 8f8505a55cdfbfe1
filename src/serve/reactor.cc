#include "serve/reactor.h"

#include <algorithm>
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

#ifdef __linux__
// Adds, or replaces the interest of, `fd`'s registration under `id`
// (id 0 is the wake pipe).
void EpollControl(int epoll_fd, int op, int fd, uint64_t id,
                  uint32_t interest) {
  struct epoll_event ev;
  ev.events = ((interest & kTransportReadable) ? EPOLLIN : 0u) |
              ((interest & kTransportWritable) ? EPOLLOUT : 0u);
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd, op, fd, &ev);
}
#endif

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
    EpollControl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], /*id=*/0,
                 kTransportReadable);
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

uint64_t Reactor::Register(Transport* transport, Handler* handler,
                           uint32_t interest) {
  uint64_t id;
  int fd = transport->fd();
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    entries_[id] = Entry{handler, interest, fd};
  }
#ifdef __linux__
  // Adding an fd that is already ready wakes a concurrent epoll_wait.
  EpollControl(epoll_fd_, EPOLL_CTL_ADD, fd, id, interest);
#else
  Wake();  // The poll backend rebuilds its fd set on its next pass.
#endif
  return id;
}

void Reactor::UpdateInterest(uint64_t id, uint32_t interest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  it->second.interest = interest;
#ifdef __linux__
  EpollControl(epoll_fd_, EPOLL_CTL_MOD, it->second.fd, id, interest);
#endif
  // The poll backend reads the new interest on its next pass.
}

void Reactor::Deregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
#ifdef __linux__
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
#endif
  entries_.erase(it);
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
  if (!posted_.empty()) return 0;
  if (timers_.empty()) return -1;
  auto now = std::chrono::steady_clock::now();
  if (timers_.top().when <= now) return 0;
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                timers_.top().when - now)
                .count();
  return static_cast<int>(std::min<int64_t>(ms + 1, 60000));
}

void Reactor::WaitForEvents(int timeout_ms, std::vector<ReadyEvent>* out) {
  bool woken = false;
#ifdef __linux__
  struct epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    uint64_t id = events[i].data.u64;
    if (id == 0) {
      woken = true;
      continue;
    }
    uint32_t ready = 0;
    if (events[i].events & EPOLLIN) ready |= kTransportReadable;
    if (events[i].events & EPOLLOUT) ready |= kTransportWritable;
    if (events[i].events & (EPOLLHUP | EPOLLERR)) ready |= kTransportClosed;
    out->push_back({id, ready});
  }
#else
  std::vector<struct pollfd> fds;
  std::vector<uint64_t> ids;
  fds.push_back({wake_fds_[0], POLLIN, 0});
  ids.push_back(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : entries_) {
      short events = static_cast<short>(
          ((entry.interest & kTransportReadable) ? POLLIN : 0) |
          ((entry.interest & kTransportWritable) ? POLLOUT : 0));
      fds.push_back({entry.fd, events, 0});
      ids.push_back(id);
    }
  }
  int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n > 0) {
    woken = fds[0].revents != 0;
    for (size_t i = 1; i < fds.size(); ++i) {
      short revents = fds[i].revents;
      if (revents == 0) continue;
      uint32_t ready = 0;
      if (revents & POLLIN) ready |= kTransportReadable;
      if (revents & POLLOUT) ready |= kTransportWritable;
      if (revents & (POLLHUP | POLLERR | POLLNVAL)) ready |= kTransportClosed;
      out->push_back({ids[i], ready});
    }
  }
#endif
  if (woken) {
    // A short read emptied the pipe; a wake written after it is
    // reported by the next wait.
    uint8_t buf[256];
    while (::read(wake_fds_[0], buf, sizeof(buf)) ==
           static_cast<ssize_t>(sizeof(buf))) {
    }
  }
}

void Reactor::Dispatch(const ReadyEvent& event) {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(event.id);
    if (it == entries_.end()) return;  // Deregistered mid-batch.
    entry = it->second;
  }
  uint32_t ready = event.ready;
  // A closed transport is "ready" in every interested direction: the
  // handler must run its I/O to observe the error and tear down.
  if (ready & kTransportClosed) ready |= kTransportReadable | kTransportWritable;
  if ((ready & kTransportReadable) && (entry.interest & kTransportReadable)) {
    entry.handler->OnReadable();
  }
  // Re-check registration: OnReadable may have deregistered itself.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(event.id);
    if (it == entries_.end()) return;
    entry = it->second;
  }
  if ((ready & kTransportWritable) && (entry.interest & kTransportWritable)) {
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
  std::vector<ReadyEvent> ready;
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
    }
    for (const ReadyEvent& event : ready) Dispatch(event);
    RunExpired();
  }
}

}  // namespace tbm::serve
