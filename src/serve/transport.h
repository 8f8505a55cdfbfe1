#ifndef TBM_SERVE_TRANSPORT_H_
#define TBM_SERVE_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
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
/// wire protocol frames run over. Implementations: the deterministic
/// in-process loopback below (tests, benches, `tbmctl serve`) and a
/// non-blocking TCP socket (serve/tcp_transport.h).
///
/// The interface is readiness-driven and never blocks: ReadSome /
/// WriteSome transfer what they can *right now* and return 0 when
/// they would block. Callers discover when to retry either by
/// polling (Poll / WaitReadable / WaitWritable) or by registering
/// with a serve::Reactor, which multiplexes many transports on one
/// loop — via epoll for fd-backed transports (fd() >= 0) and via the
/// waker for in-process ones (fd() < 0).
///
/// One reader and one writer per endpoint at a time: concurrent
/// ReadSome *or* concurrent WriteSome on the same endpoint race byte
/// order by design (each endpoint is owned by one connection pump).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads up to `n` bytes into `out`. Returns the count transferred;
  /// 0 means "would block — no bytes available yet". IOError once the
  /// channel is closed and all buffered bytes have been drained.
  virtual Result<size_t> ReadSome(uint8_t* out, size_t n) = 0;

  /// Writes a prefix of `data`. Returns the count accepted; 0 means
  /// "would block — peer buffer full". IOError when closed. Partial
  /// writes are expected: callers keep the unwritten suffix and
  /// continue when the transport becomes writable again (see
  /// framing::FrameWriter).
  virtual Result<size_t> WriteSome(ByteSpan data) = 0;

  /// Current readiness, a bitmask of TransportReady. A snapshot —
  /// readiness may change the instant this returns — but transitions
  /// from not-ready to ready always fire the waker, so
  /// "Poll, then sleep until woken" cannot miss an edge.
  virtual uint32_t Poll() const = 0;

  /// Installs the single waker callback, replacing any previous one
  /// (nullptr clears it). The waker fires on every state change that
  /// could make progress possible: bytes arriving, buffer space
  /// freeing, or close — from whichever thread caused the change, and
  /// never while an internal transport lock is held. Spurious wakes
  /// are allowed; wakers must be cheap and must not call back into
  /// the transport. fd-backed transports may ignore the waker
  /// (readiness comes from the kernel via poll/epoll on fd()).
  virtual void SetWaker(std::function<void()> waker) = 0;

  /// Kernel file descriptor for epoll/poll registration, or -1 for
  /// in-process transports (which signal readiness via the waker).
  virtual int fd() const { return -1; }

  /// Blocks the calling thread until Poll() reports one of the `want`
  /// readiness bits (or the channel closes), or `timeout` elapses.
  /// Returns true when a wanted bit is up; close counts as ready for
  /// reads (the reader must observe the EOF error) but not writes.
  /// The base implementation parks fd-backed transports in ::poll and
  /// sleep-polls in short slices otherwise; implementations with a
  /// cheaper native wait (the loopback parks on a condition variable)
  /// override it. Only the blocking helpers below and client pumps
  /// call this — the server never blocks, it uses the Reactor.
  virtual bool WaitFor(uint32_t want, std::chrono::milliseconds timeout);

  /// Closes both directions; in-flight and future ReadSome/WriteSome
  /// observe IOError once drained. Idempotent, callable from any
  /// thread — this is how a server unsticks a stalled connection.
  virtual void Close() = 0;
};

/// Tuning of an in-process loopback pair.
struct LoopbackOptions {
  /// Per-direction buffer capacity, bytes. The smaller this is, the
  /// earlier a slow consumer backpressures its producer (WriteSome
  /// returns 0, the flow-control window drains, and the server's
  /// stall timer starts ticking).
  size_t buffer_bytes = 1 << 20;
};

/// Creates a connected pair of in-process endpoints: bytes sent on one
/// arrive on the other, each direction buffered to
/// `options.buffer_bytes`. Deterministic and dependency-free — the
/// transport tests, the multiplex tests, and the reactor bench all
/// run on this.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateLoopbackPair(const LoopbackOptions& options = {});

/// Blocks until Poll() reports readable (or closed), or `timeout`
/// elapses. Returns true when readable. Convenience wrapper over
/// Transport::WaitFor — fd-backed transports park in ::poll, the
/// loopback parks on its channel's condition variable.
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
