#ifndef TBM_SERVE_FRAMING_H_
#define TBM_SERVE_FRAMING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace tbm::serve {

/// Frame envelope for the multiplexed wire protocol.
///
/// Every frame on the wire is `u32 body length (LE) | body`, and every
/// body is
///
///   u8 marker (kFrameV2Marker, 0xF2) | u8 flags | u32 stream id (LE) |
///   payload
///
/// `flags` must currently be 0 (reserved; nonzero is rejected so
/// future bits can change semantics safely). The payload is the
/// protocol request/response encoding (serve/protocol.h).
///
/// Any other first byte is an unknown frame version and the
/// connection is unframeable: the decoder returns InvalidArgument and
/// the server drops the connection rather than guessing.

inline constexpr uint8_t kFrameV2Marker = 0xF2;
inline constexpr size_t kFrameV2HeaderBytes = 6;  // marker + flags + stream id

/// Decoded frame envelope.
struct FrameHeader {
  /// Always 2, the only wire version; nothing in the library reads it.
  uint8_t version = 2;
  uint8_t flags = 0;      ///< Always 0 today.
  uint64_t stream_id = 0;
};

/// One whole frame: envelope + protocol payload (request or response
/// encoding, no length prefix).
struct Frame {
  FrameHeader header;
  Bytes payload;
};

/// Encodes a frame *body* (no u32 length prefix): the marker/flags/
/// stream-id header followed by the payload.
Bytes EncodeFrameBody(const FrameHeader& header, ByteSpan payload);

/// Encodes a whole wire frame: u32 length prefix + body.
Bytes EncodeFrame(const FrameHeader& header, ByteSpan payload);

/// Splits a frame body into envelope + payload. InvalidArgument on an
/// unknown version byte or nonzero reserved flags; Corruption on a
/// body too short to hold the v2 header.
Result<Frame> DecodeFrameBody(ByteSpan body);

/// Incremental frame reassembly over an arbitrary-cut byte stream.
/// Feed bytes as they arrive with Ingest(), then drain complete
/// frames with Next(). Hostile input (oversized length prefix,
/// unknown version, bad flags, truncated v2 header) surfaces as an
/// error from Next(), after which the stream is poisoned — the only
/// safe recovery is dropping the connection.
class FrameAssembler {
 public:
  explicit FrameAssembler(uint32_t max_frame = kMaxFrameBytes);

  void Ingest(ByteSpan bytes);

  /// Extracts the next complete frame: a Frame when one is buffered,
  /// std::nullopt when more bytes are needed, an error when the byte
  /// stream is unframeable.
  Result<std::optional<Frame>> Next();

  size_t buffered_bytes() const { return buffer_.size() - head_; }

 private:
  const uint32_t max_frame_;
  std::vector<uint8_t> buffer_;
  size_t head_ = 0;
  Status poisoned_ = Status::OK();
};

/// Outbound frame queue with partial-write continuation: frames go in
/// whole, bytes go out as fast as the transport accepts them, and a
/// frame interrupted mid-write resumes exactly where it stopped on
/// the next Flush. This is what keeps frame boundaries atomic on a
/// non-blocking transport — once a frame's first byte is on the wire,
/// no other frame's bytes may interleave.
class FrameWriter {
 public:
  using SentFn = std::function<void()>;

  /// Queues one fully-encoded wire frame (length prefix included).
  /// `on_sent`, if set, fires from Flush() on the call that writes the
  /// frame's last byte — the hook SLO accounting uses to timestamp
  /// "response fully handed to the transport".
  void Enqueue(Bytes wire, SentFn on_sent = nullptr);

  /// Writes until the transport would block or the queue drains.
  /// Returns bytes written this call; transport errors pass through
  /// (the queue is left intact for the caller's teardown logic).
  Result<size_t> Flush(Transport& transport);

  bool empty() const { return queue_.empty(); }
  size_t queued_frames() const { return queue_.size(); }
  size_t queued_bytes() const { return queued_bytes_; }

 private:
  struct Pending {
    Bytes wire;
    size_t offset = 0;
    SentFn on_sent;
  };
  std::deque<Pending> queue_;
  size_t queued_bytes_ = 0;
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_FRAMING_H_
