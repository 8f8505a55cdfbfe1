#ifndef TBM_INTERP_STREAMING_H_
#define TBM_INTERP_STREAMING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "blob/blob_store.h"
#include "blob/prefetcher.h"
#include "blob/read_policy.h"
#include "interp/interpretation.h"
#include "stream/timed_stream.h"

namespace tbm {

/// How an ElementStream reads its BLOB.
struct StreamReadOptions {
  /// Chunk granularity of the underlying reads, in [1, 2^32 - 1]
  /// (ElementStream::Open rejects anything else).
  uint64_t chunk_size = 256 * 1024;

  /// Chunks of readahead. 0 (or a null `pool`) reads synchronously —
  /// each element's chunks are fetched when the element is requested.
  int prefetch_depth = 4;

  /// Backpressure bound on prefetched-but-unconsumed bytes.
  uint64_t max_inflight_bytes = 8ull << 20;

  /// Retry/backoff/timeout applied to every chunk read.
  ReadPolicy policy;

  /// Pool the readahead runs on; borrowed, may be null (synchronous).
  ThreadPool* pool = nullptr;
};

/// Counters of one ElementStream's lifetime.
struct ElementStreamStats {
  uint64_t elements_delivered = 0;

  /// Elements whose bytes were no longer (or not yet) in the chunk
  /// window and were fetched with a direct ranged read instead —
  /// happens only for out-of-order placements (e.g. key-first layouts).
  uint64_t fallback_element_reads = 0;

  /// High-water mark of chunks buffered in the assembly window.
  uint64_t peak_window_chunks = 0;

  /// Counters of the underlying prefetcher.
  PrefetchStats prefetch;
};

/// Incremental expansion of one interpreted object: delivers the
/// object's elements in element order, reading the BLOB chunk by chunk
/// with asynchronous readahead instead of one read per element (or one
/// read for the whole object). Only the chunks from the one holding
/// the object's lowest placement offset to the one holding its highest
/// placement end are read; the rest of the BLOB is never touched.
///
/// This is the streaming form of Interpretation::Materialize. Playback
/// consumes elements in timestamp order at a sustained rate (paper
/// §2.2), so sequential chunk readahead overlaps store latency with
/// decode/presentation work; the chunk window holds only bytes that a
/// future element still needs, so memory stays bounded by the
/// prefetch budget plus the span of out-of-order placements.
///
/// The store (and the thread pool, if any) must outlive the stream.
/// The Interpretation may be destroyed after Open — the placement
/// table is copied.
class ElementStream {
 public:
  /// Opens a stream over `interpretation`'s object `name` in `store`.
  /// InvalidArgument when ValidateChunkSize rejects `options.chunk_size`.
  static Result<std::unique_ptr<ElementStream>> Open(
      const BlobStore& store, const Interpretation& interpretation,
      const std::string& name, const StreamReadOptions& options = {});

  /// True when every element has been delivered.
  bool Done() const { return next_element_ >= object_.elements.size(); }

  /// Elements delivered so far / in total.
  size_t position() const { return next_element_; }
  size_t size() const { return object_.elements.size(); }

  const MediaDescriptor& descriptor() const { return object_.descriptor; }
  const TimeSystem& time_system() const { return object_.time_system; }
  const InterpretedObject& object() const { return object_; }

  /// Delivers the next element in element order; OutOfRange once
  /// Done(). A failed read (after the policy's retries) fails only
  /// this call — the position still advances, so a lenient caller can
  /// skip the element and continue.
  Result<StreamElement> Next();

  /// True when the next `count` elements (fewer near the end) can be
  /// delivered without reading the store or waiting: every chunk they
  /// need is in the window or Ready() in the prefetcher, and every
  /// chunk Next() would pull on the way is Ready(). False before the
  /// first Next() that needs bytes (the prefetcher opens there) and
  /// when a needed chunk failed. Never blocks.
  bool Buffered(size_t count) const;

  /// Snapshot of the stream's counters.
  ElementStreamStats stats() const;

 private:
  ElementStream(const BlobStore& store, BlobId blob,
                InterpretedObject object, StreamReadOptions options);

  /// Opens the chunk reader and a prefetcher over the object's chunk
  /// range on first use.
  Status EnsurePrefetcher();

  /// Pulls chunks from the prefetcher up to and including `chunk`.
  Status AdvanceTo(uint64_t chunk);

  /// Serves `range` out of the chunk window: a zero-copy sub-slice of
  /// the covering chunk when the range fits in one chunk (the common
  /// case — element ≤ chunk), an owned concatenation otherwise. False
  /// if any needed chunk has already been evicted (or lies behind a
  /// failed pull), in which case the caller falls back to a direct
  /// read.
  bool AssembleFromWindow(ByteRange range, BufferSlice* out) const;

  /// Drops window chunks no future element needs.
  void EvictBelow(uint64_t min_future_offset);

  const BlobStore& store_;
  BlobId blob_;
  InterpretedObject object_;
  StreamReadOptions options_;
  std::unique_ptr<AsyncPrefetcher> prefetcher_;

  /// suffix_min_offset_[i] = min placement offset over elements i..n-1
  /// (UINT64_MAX past the end) — the eviction horizon.
  std::vector<uint64_t> suffix_min_offset_;

  std::map<uint64_t, BufferSlice> window_;  ///< chunk index -> payload.
  uint64_t next_pull_ = 0;            ///< Next chunk the prefetcher yields.
  size_t next_element_ = 0;
  ElementStreamStats stats_;
};

/// Materializes the named object as a TimedStream via an ElementStream
/// — same result as Interpretation::Materialize, different read path.
Result<TimedStream> MaterializeStreamed(const BlobStore& store,
                                        const Interpretation& interpretation,
                                        const std::string& name,
                                        const StreamReadOptions& options = {});

}  // namespace tbm

#endif  // TBM_INTERP_STREAMING_H_
