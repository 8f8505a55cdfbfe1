#ifndef TBM_BLOB_PREFETCHER_H_
#define TBM_BLOB_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "base/thread_pool.h"
#include "blob/chunk_reader.h"

namespace tbm {

/// Counters of one prefetcher's lifetime (monotone; read anytime).
struct PrefetchStats {
  uint64_t chunks_delivered = 0;
  uint64_t hits = 0;        ///< Next() found the chunk already buffered.
  uint64_t stalls = 0;      ///< Next() had to wait for the fetch.
  uint64_t stall_us = 0;    ///< Total time spent waiting in Next().
  uint64_t bytes_delivered = 0;
  uint64_t read_errors = 0; ///< Chunks whose read failed (after retries).

  double HitRate() const {
    uint64_t total = hits + stalls;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Asynchronous sequential readahead over a ChunkReader.
///
/// The consumer calls Next() to receive chunks `first`, `first + 1`, …
/// up to `end` (exclusive) in order; the prefetcher keeps up to `depth`
/// further chunks of that range in flight on the thread pool, bounded
/// by `max_inflight_bytes`, and never reads a chunk outside it. When
/// I/O latency and decode cost are comparable, this overlaps them
/// almost completely — playback touches elements in timestamp order at
/// a constant rate (paper §2.2), which is exactly the access pattern
/// readahead wants.
///
/// A readahead task touches one byte per page of a chunk before it
/// publishes it, so a chunk that views a memory map (the CAS store) is
/// resident by the time Ready() reports it: a consumer that checks
/// Ready() before Next() does not take a major fault in Next().
///
/// Chunk read failures are returned from Next() for that chunk only;
/// the stream position still advances, so a caller with its own
/// recovery (or a lenient ReadPolicy in the reader) can keep going.
///
/// Thread-safety: Next() is intended for one consumer thread;
/// scheduling internals are locked, and the destructor drains any
/// in-flight reads before returning.
class AsyncPrefetcher {
 public:
  /// `reader` is owned; `pool` is borrowed and may be null (synchronous
  /// mode). The underlying store must stay alive and unmutated for the
  /// prefetcher's lifetime. `[first, end)` is the chunk range delivered
  /// (`0, reader->chunk_count()` for the whole BLOB); a chunk past the
  /// reader's end is delivered as its ReadChunk error.
  ///
  /// `depth` chunks are scheduled ahead of the consumer; 0 (or a null
  /// pool) degrades to synchronous on-demand reads — the baseline the
  /// streaming ablation measures against. `max_inflight_bytes` is the
  /// backpressure bound on bytes in flight or buffered but not yet
  /// consumed: scheduling pauses there even if `depth` would allow
  /// more, so a fast store cannot balloon memory ahead of a slow
  /// consumer. ElementStream passes its StreamReadOptions here.
  AsyncPrefetcher(std::unique_ptr<ChunkReader> reader, uint64_t first,
                  uint64_t end, ThreadPool* pool, int depth,
                  uint64_t max_inflight_bytes);

  /// Blocks until outstanding chunk reads finish.
  ~AsyncPrefetcher();

  AsyncPrefetcher(const AsyncPrefetcher&) = delete;
  AsyncPrefetcher& operator=(const AsyncPrefetcher&) = delete;

  /// True when every chunk of the range has been delivered.
  bool Done() const;

  /// Index of the chunk the next call to Next() delivers.
  uint64_t next_index() const;

  /// True when chunk `index` was fetched OK and waits for Next(), so
  /// Next() can hand it over without reading or waiting. Never blocks.
  /// Always false in synchronous mode (Next() reads there).
  bool Ready(uint64_t index) const;

  uint64_t chunk_count() const { return reader_->chunk_count(); }
  const ChunkReader& reader() const { return *reader_; }

  /// Delivers the next chunk in sequence, scheduling further readahead.
  /// OutOfRange once Done().
  Result<BufferSlice> Next();

  /// Snapshot of the prefetcher's counters.
  PrefetchStats stats() const;

 private:
  /// Schedules readahead up to depth/byte bounds. Caller holds mu_.
  void ScheduleLocked();

  std::unique_ptr<ChunkReader> reader_;
  ThreadPool* pool_;
  const uint64_t end_;  ///< One past the last chunk delivered.
  const int depth_;
  const uint64_t max_inflight_bytes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Result<BufferSlice>> ready_;  ///< Fetched, unconsumed.
  uint64_t next_consume_;       ///< Next chunk Next() returns.
  uint64_t next_schedule_;      ///< Next chunk to hand to the pool.
  uint64_t inflight_bytes_ = 0; ///< Scheduled or buffered, unconsumed.
  int outstanding_tasks_ = 0;
  PrefetchStats stats_;
};

}  // namespace tbm

#endif  // TBM_BLOB_PREFETCHER_H_
