#ifndef TBM_SERVE_TRANSPORT_H_
#define TBM_SERVE_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"

namespace tbm::serve {

/// Readiness bits reported by Transport::Poll().
enum TransportReady : uint32_t {
  /// Bytes are available to read — or the channel reached EOF/close,
  /// in which case ReadSome reports IOError. Either way a reader that
  /// sees this bit can make progress (data or a definitive error).
  kTransportReadable = 1u << 0,
  /// At least one byte of buffer space is available to write.
  kTransportWritable = 1u << 1,
  /// The channel is closed (locally or by the peer). Usually reported
  /// together with kTransportReadable so readers discover the EOF.
  kTransportClosed = 1u << 2,
};

/// A bidirectional, ordered, reliable byte channel — the substrate the
/// wire protocol frames run over. Every implementation is a kernel
/// socket (serve/tcp_transport.cc): a TCP connection, or one end of
/// the AF_UNIX socketpair CreateLoopbackPair returns (tests, benches,
/// `tbmctl serve`).
///
/// The interface is readiness-driven and never blocks: ReadSome /
/// WriteSome transfer what they can *right now* and return 0 when
/// they would block. Callers learn when to retry either by waiting on
/// the endpoint (WaitReadable / WaitWritable) or by registering it
/// with a serve::Reactor, which multiplexes many transports' fd()s on
/// one loop.
///
/// One reader and one writer per endpoint at a time: concurrent
/// ReadSome *or* concurrent WriteSome on the same endpoint race byte
/// order by design (each endpoint is owned by one connection pump).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads up to `n` bytes into `out`. Returns the count transferred;
  /// 0 means "would block — no bytes available yet". IOError once the
  /// endpoint is closed locally, or once the peer has closed and all
  /// bytes it sent before have been drained.
  virtual Result<size_t> ReadSome(uint8_t* out, size_t n) = 0;

  /// Writes a prefix of `data`. Returns the count accepted; 0 means
  /// "would block — send buffer full". IOError when closed. Partial
  /// writes are expected: callers keep the unwritten suffix and
  /// continue when the transport becomes writable again (see
  /// framing::FrameWriter).
  virtual Result<size_t> WriteSome(ByteSpan data) = 0;

  /// Current readiness, a bitmask of TransportReady — a snapshot that
  /// may change the instant this returns. For tests and WaitFor; the
  /// reactor takes readiness from the kernel's report instead.
  virtual uint32_t Poll() const = 0;

  /// Kernel file descriptor the reactor registers with epoll/poll and
  /// WaitFor parks on.
  virtual int fd() const = 0;

  /// Blocks the calling thread in ::poll on fd() until Poll() reports
  /// one of the `want` readiness bits (or the channel closes), or
  /// `timeout` elapses. Returns true when a wanted bit is up; close
  /// counts as ready for reads (the reader must observe the EOF
  /// error) but not writes. Only the blocking helpers below and
  /// client pumps call this — the server never blocks, it uses the
  /// Reactor.
  bool WaitFor(uint32_t want, std::chrono::milliseconds timeout);

  /// Closes both directions; in-flight and future ReadSome/WriteSome
  /// observe IOError, and the peer reads EOF once drained. Idempotent,
  /// callable from any thread — this is how a server unsticks a
  /// stalled connection.
  virtual void Close() = 0;
};

/// Tuning of an in-process loopback pair.
struct LoopbackOptions {
  /// Requested SO_SNDBUF/SO_RCVBUF of each end. The smaller this is,
  /// the earlier a slow consumer backpressures its producer (WriteSome
  /// returns 0, the flow-control window drains, and the server's
  /// stall timer starts ticking). Two kernel rules shape what a pair
  /// really holds (measured on Linux 6.x):
  ///  - The kernel doubles the request (capped by net.core.wmem_max)
  ///    and floors it at 4,608 bytes, so a 64- or 128-byte request
  ///    gives 4,608, and a full direction then holds 4,480 bytes.
  ///  - An AF_UNIX stream end turns writable again only once its
  ///    queued bytes fall to a quarter of the send buffer; for a small
  ///    buffer that means after the peer has drained everything.
  size_t buffer_bytes = 1 << 20;
};

/// Creates a connected pair of in-process endpoints: the two ends of
/// a non-blocking AF_UNIX stream socketpair, each buffered per
/// `options`. They register with the Reactor like any TCP socket, so
/// the transport tests, the multiplex tests and the reactor bench
/// drive the same readiness path a real client does. When the process
/// has no descriptors left, both ends come back closed: every read or
/// write on them fails with IOError.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateLoopbackPair(const LoopbackOptions& options = {});

/// Blocks until Poll() reports readable (or closed), or `timeout`
/// elapses. Returns true when readable. Convenience wrapper over
/// Transport::WaitFor.
/// Test/tool helper — the server never blocks, it uses the Reactor.
bool WaitReadable(Transport& transport, std::chrono::milliseconds timeout);

/// Blocks until Poll() reports writable (or closed), or `timeout`
/// elapses. Returns true when writable.
bool WaitWritable(Transport& transport, std::chrono::milliseconds timeout);

/// Blocking helpers over the non-blocking interface, for clients,
/// tests and tools. `timeout` bounds the
/// *total* wait; ResourceExhausted when it elapses with the transfer
/// incomplete (the stream position is then indeterminate — callers
/// should treat the connection as lost).
Status BlockingSend(Transport& transport, ByteSpan data,
                    std::chrono::milliseconds timeout);
Status BlockingRecv(Transport& transport, uint8_t* out, size_t n,
                    std::chrono::milliseconds timeout);

/// Writes one length-prefixed body: u32 length (LE) + `payload`, from
/// one buffer — a single WriteSome when the peer has room. The caller
/// supplies the frame envelope (framing::EncodeFrameBody).
Status WriteFrame(Transport& transport, ByteSpan payload,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(5000));

/// Reads one length-prefixed body and returns it without the prefix;
/// callers hand it to framing::DecodeFrameBody.
/// Corruption when the length prefix exceeds `max_frame` (the peer is
/// malformed or hostile); transport errors pass through.
Result<Bytes> ReadFrame(Transport& transport, uint32_t max_frame = 64u << 20,
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(30000));

}  // namespace tbm::serve

#endif  // TBM_SERVE_TRANSPORT_H_
