#ifndef TBM_BLOB_CHUNK_READER_H_
#define TBM_BLOB_CHUNK_READER_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "base/buffer.h"
#include "base/bytes.h"
#include "base/result.h"
#include "blob/read_policy.h"

namespace tbm {

class BlobStore;
using BlobId = uint64_t;

/// OK when a ChunkReader can serve chunks of `chunk_size` bytes:
/// positive and at most 2^32 - 1. InvalidArgument otherwise.
Status ValidateChunkSize(uint64_t chunk_size);

/// Incremental access to one BLOB as a sequence of fixed-size chunks.
///
/// The paper's timed streams are consumed in timestamp order at a
/// bounded data rate; whole-object reads force the full BLOB latency
/// up front and forbid overlapping decode with I/O. A ChunkReader is
/// the delivery-path primitive that fixes this: `ReadChunk(i)` serves
/// chunk `i` on demand, so consumers (AsyncPrefetcher, and through it
/// ElementStream, which every MediaDatabase materialization reads
/// through) pull data as the presentation needs it.
///
/// Obtain one with `BlobStore::OpenChunkReader`. Each chunk is one
/// policy-governed range read through the store's `Read`, so the same
/// reader serves every store and every decorator (a FaultInjectingStore
/// injects its faults into each chunk read). The reader snapshots the
/// BLOB size at open; bytes appended afterwards are not visible.
/// `ReadChunk` is safe to call from multiple threads concurrently as
/// long as no thread mutates the underlying store — this is what the
/// prefetcher relies on to overlap chunk fetches.
class ChunkReader {
 public:
  /// Chunk payload size in bytes, as opened.
  uint32_t chunk_size() const { return chunk_size_; }

  /// BLOB size snapshot taken at open, bytes.
  uint64_t blob_size() const { return blob_size_; }

  /// Number of chunks ( = ceil(blob_size / chunk_size); 0 for an empty
  /// BLOB).
  uint64_t chunk_count() const {
    const uint32_t chunk = chunk_size();
    return blob_size_ == 0 ? 0 : (blob_size_ + chunk - 1) / chunk;
  }

  /// Byte range chunk `index` covers (the final chunk is truncated to
  /// the BLOB end).
  ByteRange ChunkRange(uint64_t index) const {
    uint64_t offset = index * static_cast<uint64_t>(chunk_size());
    uint64_t length =
        offset >= blob_size_
            ? 0
            : std::min<uint64_t>(chunk_size(), blob_size_ - offset);
    return ByteRange{offset, length};
  }

  /// Reads chunk `index` under the reader's ReadPolicy. OutOfRange for
  /// `index >= chunk_count()`. Zero-copy where the store supports it
  /// (see BlobStore::Read); the slice owns its bytes either way.
  Result<BufferSlice> ReadChunk(uint64_t index) const;

  /// The policy chunk reads run under.
  const ReadPolicy& policy() const { return policy_; }

 private:
  friend class BlobStore;  // OpenChunkReader validates the chunk size.

  ChunkReader(const BlobStore* store, BlobId id, uint64_t blob_size,
              uint32_t chunk_size, ReadPolicy policy)
      : store_(store),
        id_(id),
        blob_size_(blob_size),
        chunk_size_(chunk_size),
        policy_(std::move(policy)) {}

  const BlobStore* store_;
  BlobId id_;
  uint64_t blob_size_;
  uint32_t chunk_size_;
  ReadPolicy policy_;
};

}  // namespace tbm

#endif  // TBM_BLOB_CHUNK_READER_H_
