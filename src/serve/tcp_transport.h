#ifndef TBM_SERVE_TCP_TRANSPORT_H_
#define TBM_SERVE_TCP_TRANSPORT_H_

/// Socket transports for the serve protocol (POSIX sockets; the
/// library is POSIX-only anyway): TCP here, and the AF_UNIX socketpair
/// behind CreateLoopbackPair (serve/transport.h). Everything else in
/// the serve layer — protocol, sessions, server, reactor — is
/// transport-agnostic; tcp_transport.cc is the only place that touches
/// sockets, and both kinds share one socket Transport class.
///
/// Sockets are non-blocking (O_NONBLOCK): ReadSome/WriteSome map
/// EAGAIN to "would block" (0), readiness comes from the kernel via
/// fd() — the reactor registers it with epoll/poll — and the blocking
/// helpers in serve/transport.h layer timeouts on top for tools and
/// tests. There are no socket-level send timeouts; slow-client
/// detection is the server's stall timer.

#include <cstdint>
#include <memory>
#include <string>

#include "base/result.h"
#include "serve/transport.h"

namespace tbm::serve {

/// Connects to `host:port` (IPv4 dotted quad). The returned transport
/// is non-blocking.
Result<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                              uint16_t port);

/// A listening IPv4 socket on 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens. `port` 0 picks an ephemeral port (see port()).
  static Result<std::unique_ptr<TcpListener>> Listen(uint16_t port);

  ~TcpListener();

  /// The bound port.
  uint16_t port() const { return port_; }

  /// Blocks for the next connection; the accepted transport is
  /// non-blocking. IOError once Close()d.
  Result<std::unique_ptr<Transport>> Accept();

  /// Closes the listening socket, unblocking Accept.
  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_;
  uint16_t port_;
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_TCP_TRANSPORT_H_
