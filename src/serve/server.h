#ifndef TBM_SERVE_SERVER_H_
#define TBM_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "db/database.h"
#include "playback/admission.h"
#include "serve/framing.h"
#include "serve/reactor.h"
#include "serve/session.h"
#include "serve/transport.h"

namespace tbm::serve {

/// Tuning of a MediaServer.
struct ServeConfig {
  /// Hard cap on concurrently open streams (sessions) server-wide,
  /// and on adopted connections.
  size_t max_sessions = 128;

  /// Cap on concurrently open streams multiplexed on one connection.
  size_t max_streams_per_connection = 64;

  /// Aggregate service bandwidth admission control books against
  /// (at each stream's average rate).
  double capacity_bytes_per_second = 64.0 * 1024 * 1024;

  /// Deepest degradation tier admission may fall back to (power of
  /// two; stride 8 books 1/8 of the full rate).
  int max_stride = 8;

  /// Threads executing request work (element fetch + encode). Kept
  /// separate from `io_threads`: request tasks block on prefetched
  /// chunks, so sharing one pool with the prefetcher would deadlock.
  int worker_threads = 4;

  /// Threads running chunk readahead for full-fidelity sessions.
  int io_threads = 2;

  /// Server-side cap on elements per READ response. (Each response is
  /// also capped at 4 MiB of payload; see Session::ReadNext.)
  uint64_t read_batch_cap = 64;

  /// Worker-queue depth beyond which the server is "under pressure":
  /// new streams are admitted pre-degraded (stride >= 2) and
  /// streaming sessions are degraded instead of stalling on the byte
  /// budget.
  int queue_high_watermark = 32;

  /// How long a READ data frame may wait on the global byte budget
  /// after the pressure degrade was applied. Past it the send
  /// proceeds anyway (the budget goes negative and pays itself back),
  /// keeping the server live under transient oversubscription.
  std::chrono::milliseconds budget_wait{250};

  /// How long a stream may sit with data queued but unsendable — its
  /// flow-control window empty, or the connection's transport buffer
  /// full — before the server evicts it as a slow client. The reactor
  /// never blocks on a send, so this timer *is* the slow-client
  /// detector that blocking send timeouts used to be.
  std::chrono::milliseconds stall_timeout{1000};

  /// Read options for session element streams; `pool` is overridden
  /// with the server's I/O pool.
  StreamReadOptions read_options;

  /// SLO deadline for a READ request (request receipt through response
  /// send), in microseconds. 0 derives the deadline from the session's
  /// booked rate: a batch of B bytes on a session booked at R bytes/s
  /// must leave within B/R seconds, or the session is falling behind
  /// real time. Misses increment the per-QoS deadline-miss counter and
  /// land in the session's flight recorder.
  uint64_t read_deadline_us = 0;
};

/// Aggregate counters of a server's lifetime.
struct ServerStatsSnapshot {
  uint64_t sessions_admitted = 0;
  uint64_t sessions_degraded = 0;  ///< Admitted below full fidelity or
                                   ///< degraded mid-session.
  uint64_t sessions_denied = 0;
  uint64_t sessions_evicted = 0;
  uint64_t requests = 0;
  uint64_t response_bytes = 0;
  size_t active_sessions = 0;    ///< Open streams, server-wide.
  size_t active_connections = 0;
};

/// Global byte-rate budget: a token bucket shared by every stream's
/// response path. Senders acquire tokens for each data frame; when
/// the bucket runs dry the server is oversubscribed in practice (not
/// just on paper) and the write scheduler degrades streams rather
/// than queueing unboundedly. Thread-safe.
class ByteBudget {
 public:
  /// `rate` tokens (bytes) per second, accumulating up to `burst`.
  /// rate <= 0 disables the budget (TryAcquire always succeeds).
  ByteBudget(double rate, uint64_t burst);

  /// Claims `bytes` if available now.
  bool TryAcquire(uint64_t bytes);

  /// Claims `bytes` unconditionally; the balance may go negative and
  /// is paid back by future refills (later acquires wait longer).
  /// Keeps the send path live when the budget is persistently starved.
  void ForceAcquire(uint64_t bytes);

 private:
  void Refill();

  const double rate_;
  const double burst_;
  std::mutex mu_;
  double tokens_;
  std::chrono::steady_clock::time_point last_;
};

/// The event-driven media service: one reactor loop multiplexes every
/// adopted connection, each connection multiplexes many streams, and
/// request *work* that may block (OPEN, element fetch that waits on
/// the store) runs as tasks on the shared worker pool whose FIFO queue
/// is the fair-share scheduler. Chunk readahead runs on the separate
/// I/O pool.
///
/// Concurrency model: connection and stream state lives on the
/// reactor loop thread — frames are parsed there, responses are
/// scheduled there, and nothing ever blocks there. A READ whose bytes
/// the readahead already holds (Session::CanReadWithoutIo) runs to
/// completion on the loop. Any other READ, and every OPEN, goes to a
/// worker task that gets a shared_ptr<Session> and posts its
/// completion back to the loop, which encodes and schedules the
/// response. A session has one driver at a time, the loop or one
/// worker.
///
/// Write scheduling per connection: control frames (OPEN/SEEK/STATS/
/// CLOSE/TELEMETRY/errors) first, then READ data frames by QoS
/// priority (0 before 7), round-robin within a level. A data frame is
/// sendable only when its stream's flow-control window covers it and
/// the global byte budget grants it.
///
/// Overload policy, in order: (1) admission books each stream's rate
/// against `capacity_bytes_per_second`, degrading new streams
/// (coarser stride) before denying; (2) the byte budget paces data
/// frames, degrading streams that outrun it and never stalling past
/// `budget_wait`; (3) slow clients — streams whose window stays empty
/// or connections whose transport stays unwritable past
/// `stall_timeout` — are evicted, so one stalled consumer cannot hold
/// tokens, table slots, and buffers forever.
class MediaServer {
 public:
  MediaServer(const MediaDatabase* db, ServeConfig config = {});
  ~MediaServer();

  MediaServer(const MediaServer&) = delete;
  MediaServer& operator=(const MediaServer&) = delete;

  /// Adopts a connection and serves it until EOF, teardown, or
  /// eviction. One connection carries up to
  /// `max_streams_per_connection` concurrent streams, each addressed
  /// by the stream id in its frame envelope (serve/framing.h). A byte
  /// stream that does not frame drops the connection.
  /// ResourceExhausted when the connection table is full,
  /// FailedPrecondition when the server is stopping (either way the
  /// transport is closed and dropped).
  Status Serve(std::unique_ptr<Transport> transport);

  /// Tears down every connection and stops the reactor loop.
  /// Idempotent; called by the destructor.
  void Stop();

  ServerStatsSnapshot stats() const;
  const ServeConfig& config() const { return config_; }

  /// Flight-recorder dumps of streams that ended badly (evicted, or
  /// completed with skipped elements), newest last, capped at the 32
  /// most recent. Empty in TBM_OBS_DISABLED builds.
  std::vector<std::string> flight_dumps() const;

 private:
  /// One encoded response frame waiting on the per-stream data queue:
  /// it still owes flow-control window and byte-budget tokens before
  /// it may move to the connection's FrameWriter.
  struct OutFrame {
    Bytes wire;               ///< Whole wire frame (length prefix included).
    uint64_t payload_bytes = 0;  ///< Flow-control debit (response payload).
    int64_t received_ns = 0;  ///< Request receipt, for SLO latency.
    uint32_t stride = 1;      ///< QoS class of the batch.
    bool end_of_stream = false;
    /// Budget grace deadline; zero until the frame first finds the
    /// bucket dry. Once past, the frame force-acquires and goes.
    std::chrono::steady_clock::time_point pace_deadline{};
    bool pace_degraded = false;  ///< Pacing already degraded the stream once.
  };

  /// One multiplexed stream on a connection. Loop-thread state.
  struct Stream {
    uint64_t id = 0;
    uint8_t priority = 4;  ///< QoS write priority, 0..7.
    std::shared_ptr<Session> session;  ///< Null until OPEN completes.
    std::string admission_key;
    bool booked = false;
    bool flow_controlled = false;
    int64_t window = 0;  ///< Remaining flow-control credit, bytes.
    std::deque<OutFrame> data_frames;
    /// Requests queued behind the outstanding worker task (a session
    /// has one driver at a time, the loop or one worker), with their
    /// receipt timestamps.
    std::deque<std::pair<Request, int64_t>> pending;
    bool busy = false;   ///< A worker task is in flight for this stream.
    bool in_rr = false;  ///< Enqueued in the priority round-robin.
    /// Pacing asked for a degrade while a worker held the session;
    /// applied on the loop once the stream is quiescent again.
    bool degrade_pending = false;
    /// When the stream first became unsendable (window empty with data
    /// queued). Zero = not stalled. Feeds slow-client eviction.
    std::chrono::steady_clock::time_point stall_since{};
  };

  struct Connection;

  // --- Reactor-loop methods (never block). ---
  void OnConnReadable(Connection* conn);
  void OnConnWritable(Connection* conn);
  /// True when the connection survived frame processing.
  bool ProcessFrame(Connection* conn, Frame frame);
  void ExecuteOrQueue(Connection* conn, Stream* stream, Request request,
                      int64_t received_ns);
  void Execute(Connection* conn, Stream* stream, const Request& request,
               int64_t received_ns);
  void DrainPending(Connection* conn, Stream* stream);
  void FinishOpen(uint64_t conn_id, uint64_t stream_id, Response response,
                  std::shared_ptr<Session> session, std::string admission_key);
  /// Completion of an offloaded READ: CompleteRead, then the stream's
  /// pending requests and a write pump.
  void FinishRead(uint64_t conn_id, uint64_t stream_id, Response response,
                  int64_t received_ns);
  /// Completion shared by both READ paths: clears `busy`, applies a
  /// deferred degrade, queues the response. Never flushes — a flush
  /// can tear the connection down, and the inline path runs inside
  /// OnConnReadable's frame loop, whose closing PumpWrites sends it.
  void CompleteRead(Connection* conn, Stream* stream,
                    const Response& response, int64_t received_ns);
  void EnqueueControl(Connection* conn, uint64_t stream_id,
                      const Response& response);
  void EnqueueData(Connection* conn, Stream* stream, const Response& response,
                   int64_t received_ns);
  /// Moves the stream's front data frame into the writer if window
  /// and budget allow. True when a frame moved.
  bool TrySendData(Connection* conn, Stream* stream);
  Stream* PickNextDataStream(Connection* conn);
  void PumpWrites(Connection* conn);
  void ArmPaceTimer(Connection* conn);
  void UpdateConnInterest(Connection* conn);
  void EnterRoundRobin(Connection* conn, Stream* stream);
  void RemoveStream(Connection* conn, uint64_t stream_id, const char* cause,
                    bool evict);
  void TeardownConnection(Connection* conn, const char* cause);
  void CheckStalls();

  /// Runs `session`'s ReadNext under the serve.read span and the
  /// request timer. On a worker, or on the loop when the session
  /// CanReadWithoutIo.
  Response ServeRead(Session* session, uint64_t max_elements,
                     const TraceContext& trace);

  // --- Worker-pool methods (may block on reads). ---
  void RunOpen(uint64_t conn_id, uint64_t stream_id, Request request);
  void RunRead(uint64_t conn_id, uint64_t stream_id,
               std::shared_ptr<Session> session, uint64_t max_elements,
               TraceContext trace, int64_t received_ns);

  /// Retains `dump` (dropping the oldest past the cap); empty dumps —
  /// the TBM_OBS_DISABLED case — are ignored.
  void StoreFlightDump(std::string dump);

  /// Halves the stream's fidelity and re-books its admission ledger
  /// entry at the reduced rate. Loop thread.
  void DegradeStream(Stream* stream);

  /// Releases the stream's admission booking if still held.
  void ReleaseBooking(Stream* stream);

  const MediaDatabase* db_;
  ServeConfig config_;
  std::mutex admission_mu_;  ///< AdmissionController is not thread-safe.
  AdmissionController admission_;
  ByteBudget budget_;
  Reactor reactor_;  ///< Declared before the pools: worker completions
                     ///< Post() here while the pools drain.
  ThreadPool worker_pool_;
  ThreadPool io_pool_;

  /// Loop-thread only.
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  std::atomic<bool> stopping_{false};

  mutable std::mutex flight_mu_;  ///< Guards flight_dumps_.
  std::vector<std::string> flight_dumps_;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> stat_admitted_{0};
  std::atomic<uint64_t> stat_degraded_{0};
  std::atomic<uint64_t> stat_denied_{0};
  std::atomic<uint64_t> stat_evicted_{0};
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_response_bytes_{0};
  std::atomic<size_t> active_streams_{0};
  std::atomic<size_t> active_connections_{0};
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_SERVER_H_
