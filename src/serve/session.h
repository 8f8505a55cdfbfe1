#ifndef TBM_SERVE_SESSION_H_
#define TBM_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "blob/blob_store.h"
#include "interp/interpretation.h"
#include "interp/streaming.h"
#include "obs/flight.h"
#include "serve/protocol.h"

namespace tbm::serve {

/// Per-client state machine of the media service:
///
///   OPEN -> ADMITTED -> STREAMING -> { DONE, DEGRADED, EVICTED }
///
/// A session is created only after admission control books its rate
/// (so OPEN -> ADMITTED happens at construction) and owns the read
/// machinery for one interpreted object:
///
/// - At full fidelity (stride 1) it streams through an ElementStream —
///   chunked reads with asynchronous readahead on the server's I/O
///   pool, the retry policy absorbing transient store faults.
/// - Degraded (stride 2^k) or after a SEEK it switches to direct
///   placement reads of just the elements it will deliver: a strided
///   session genuinely reads ~1/stride of the bytes, which is what
///   makes degradation a real capacity lever rather than an
///   accounting fiction.
///
/// An element read that still fails after retries is skipped, not
/// fatal — the session completes with `elements_skipped` > 0 and ends
/// DEGRADED instead of DONE. Sessions have one driver at a time, the
/// server's loop or one worker; only `state()`, `trace_id()` and the
/// mutex-guarded flight recorder are safe to use concurrently.
class Session {
 public:
  struct Config {
    uint32_t stride = 1;
    double booked_bytes_per_second = 0.0;
    /// Identity of the multiplexed stream this session serves: the
    /// server connection and the stream id within it. Flight-recorder
    /// labels and dumps are keyed by these, so an eviction post-mortem
    /// names the stream, not just the socket. 0/0 = standalone (tests
    /// that drive a Session directly).
    uint64_t connection_id = 0;
    uint64_t stream_id = 0;
    /// Read options for the element stream / direct reads. `pool`
    /// should be the server's I/O pool (not its worker pool — handler
    /// tasks block on reads, so sharing one pool would deadlock).
    StreamReadOptions read_options;
  };

  /// Opens a session on `interpretation`'s object `stream_name`.
  /// `store` must outlive the session; the placement table is copied.
  static Result<std::unique_ptr<Session>> Create(
      uint64_t id, std::string object_name, const BlobStore* store,
      const Interpretation& interpretation, const std::string& stream_name,
      Config config);

  uint64_t id() const { return id_; }
  uint64_t connection_id() const { return config_.connection_id; }
  uint64_t stream_id() const { return config_.stream_id; }
  const std::string& object_name() const { return object_name_; }
  SessionState state() const {
    return state_.load(std::memory_order_acquire);
  }
  uint32_t stride() const { return stride_; }
  bool degraded() const { return degraded_; }
  double booked_bytes_per_second() const { return booked_; }
  void set_booked_bytes_per_second(double rate) { booked_ = rate; }

  uint64_t element_count() const { return object_.elements.size(); }
  uint64_t payload_bytes() const { return object_.PayloadBytes(); }
  const InterpretedObject& object() const { return object_; }

  /// Adopts the client's trace id (from OPEN's trace context), so the
  /// session's flight-recorder dumps can name the trace to pull up in
  /// the merged timeline. 0 = no cross-boundary trace.
  void AdoptTrace(uint64_t trace_id);
  uint64_t trace_id() const { return trace_id_; }

  /// The session's flight recorder: recent state transitions, faults,
  /// degradations, slow reads (over 10 ms). The server adds its own
  /// events (e.g. deadline misses) through this.
  obs::FlightRecorder* flight() { return &flight_; }

  /// Flight-recorder dump for this session, headed by its identity
  /// (id, object, state, stride, trace id) and `cause`.
  std::string DumpFlight(std::string_view cause) const;

  /// Delivers up to `max_elements` next elements (also bounded by a
  /// 4 MiB response byte cap), advancing the session by its stride. Sets
  /// `end_of_stream` — and moves the session to its terminal DONE /
  /// DEGRADED state — when the last element has been delivered.
  /// Returns FailedPrecondition once the session is terminal.
  Result<ReadBatch> ReadNext(uint64_t max_elements);

  /// True when ReadNext(max_elements) would neither read the store
  /// nor wait for readahead: the session streams at stride 1, is
  /// aligned with its element stream, and every chunk the next
  /// `max_elements` elements need is already fetched
  /// (ElementStream::Buffered). A first READ, a strided or sought
  /// session, a failed chunk and synchronous read-ahead all answer
  /// false. Never blocks; the server runs such a READ on its loop.
  bool CanReadWithoutIo(uint64_t max_elements) const;

  /// Repositions to `element` (OutOfRange past the end) and switches
  /// to direct reads — a seek abandons the sequential chunk window.
  Result<uint64_t> SeekTo(uint64_t element);

  /// Halves the session's fidelity: doubles the stride and drops to
  /// direct reads. The caller re-books the admission ledger. The
  /// session will finish DEGRADED.
  void Degrade();

  /// Terminal transition for server-initiated removal (slow client,
  /// shutdown). Irreversible. `cause` must have static storage
  /// duration (a literal); it lands in the flight recorder.
  void MarkEvicted(const char* cause = "server-initiated eviction");

  /// Client closed before the stream ended: terminal DONE/DEGRADED at
  /// whatever position it reached. No-op if already terminal.
  void MarkClosed();

  SessionStatsWire StatsWire() const;

 private:
  Session(uint64_t id, std::string object_name, const BlobStore* store,
          BlobId blob, InterpretedObject object, Config config);

  bool Terminal() const {
    SessionState s = state();
    return s == SessionState::kDone || s == SessionState::kDegraded ||
           s == SessionState::kEvicted;
  }

  /// Reads element `index` bytes: from the element stream when it is
  /// aligned with the stream position, by direct placement read
  /// otherwise.
  Result<Bytes> ReadElementBytes(uint64_t index);

  /// Moves to the terminal completed state (DONE, or DEGRADED when
  /// fidelity was reduced or elements were skipped).
  void Finish();

  const uint64_t id_;
  const std::string object_name_;
  const BlobStore* store_;
  const BlobId blob_;
  const InterpretedObject object_;
  Config config_;

  std::atomic<SessionState> state_{SessionState::kAdmitted};
  uint32_t stride_;
  bool degraded_ = false;
  double booked_ = 0.0;
  uint64_t trace_id_ = 0;
  obs::FlightRecorder flight_;

  /// Sequential chunked reader; non-null only while the session is at
  /// stride 1 and has not sought.
  std::unique_ptr<ElementStream> stream_;

  uint64_t position_ = 0;  ///< Next element number to deliver.
  uint64_t delivered_ = 0;
  uint64_t skipped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_SESSION_H_
