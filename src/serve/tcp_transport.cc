#include "serve/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>

namespace tbm::serve {

namespace {

Status Errno(const char* op) {
  return Status::IOError(std::string(op) + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// A non-blocking stream socket: a TCP connection or one end of a
// loopback socketpair. A negative `fd` makes an endpoint that is
// closed from the start.
//
// Close() only shuts the socket down, which wakes any thread blocked
// on it; the descriptor itself is released in the destructor, when no
// other thread can still be using it. Closing it earlier would let a
// concurrent ReadSome/WriteSome/poll — or the reactor's deregistration
// — act on a descriptor number the process may already have reused.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(int fd) : fd_(fd), closed_(fd < 0) {}
  ~SocketTransport() override {
    Close();
    if (fd_ >= 0) ::close(fd_);
  }

  Result<size_t> ReadSome(uint8_t* out, size_t n) override {
    if (closed_.load()) return Status::IOError("transport closed");
    for (;;) {
      ssize_t r = ::recv(fd_, out, n, 0);
      if (r > 0) return static_cast<size_t>(r);
      if (r == 0) return Status::IOError("transport closed");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return Errno("recv");
    }
  }

  Result<size_t> WriteSome(ByteSpan data) override {
    if (closed_.load()) return Status::IOError("transport closed");
    if (data.empty()) return size_t{0};
    for (;;) {
      ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n >= 0) return static_cast<size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return Errno("send");
    }
  }

  uint32_t Poll() const override {
    if (closed_.load()) return kTransportClosed | kTransportReadable;
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN | POLLOUT;
    int rc = ::poll(&pfd, 1, 0);
    if (rc < 0) return 0;
    uint32_t ready = 0;
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) ready |= kTransportReadable;
    if (pfd.revents & POLLOUT) ready |= kTransportWritable;
    if (pfd.revents & (POLLHUP | POLLERR)) ready |= kTransportClosed;
    return ready;
  }

  int fd() const override { return fd_; }

  void Close() override {
    if (!closed_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  const int fd_;
  std::atomic<bool> closed_;
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateLoopbackPair(const LoopbackOptions& options) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) == 0) {
    int bytes = static_cast<int>(
        std::min<size_t>(options.buffer_bytes, INT_MAX / 2));
    for (int fd : fds) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    }
  }
  return {std::make_unique<SocketTransport>(fds[0]),
          std::make_unique<SocketTransport>(fds[1])};
}

Result<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                              uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  // Connect while still blocking (simple), then flip to non-blocking
  // for the transport's readiness-driven I/O.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetNonBlocking(fd);
  return std::unique_ptr<Transport>(new SocketTransport(fd));
}

TcpListener::~TcpListener() { Close(); }

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Errno("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, 256) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status = Errno("getsockname");
    ::close(fd);
    return status;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

Result<std::unique_ptr<Transport>> TcpListener::Accept() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      SetNonBlocking(fd);
      return std::unique_ptr<Transport>(new SocketTransport(fd));
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace tbm::serve
