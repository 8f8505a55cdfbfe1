#include "serve/transport.h"

#include <poll.h>

#include <algorithm>
#include <string>

#include "base/macros.h"

namespace tbm::serve {

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
    struct pollfd pfd;
    pfd.fd = fd();
    pfd.events = static_cast<short>(
        ((want & kTransportReadable) ? POLLIN : 0) |
        ((want & kTransportWritable) ? POLLOUT : 0));
    pfd.revents = 0;
    auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(left.count(), 100)));
  }
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
