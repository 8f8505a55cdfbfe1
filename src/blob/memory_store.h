#ifndef TBM_BLOB_MEMORY_STORE_H_
#define TBM_BLOB_MEMORY_STORE_H_

#include <map>

#include "blob/blob_store.h"

namespace tbm {

/// BLOB store keeping each BLOB as one contiguous in-memory buffer.
///
/// This is the "contiguous layout" end of the layout spectrum: appends
/// may reallocate and copy, reads are zero-copy. Used as the baseline
/// in the storage-layout ablation bench and as the default store in
/// tests and examples.
///
/// Each BLOB is a ref-counted append buffer: `size` bytes published,
/// the rest spare capacity. Reads return slices of the buffer —
/// published bytes are never rewritten (appends fill spare capacity;
/// growth allocates a fresh buffer and copies), so outstanding slices
/// stay valid across later appends, deletes, and even destruction of
/// the store, under the store's documented single-writer contract.
class MemoryBlobStore : public BlobStore {
 public:
  MemoryBlobStore() = default;

  /// Streaming push. The handle accumulates into a private buffer and
  /// publishes atomically at Finish(): the BLOB is invisible to reads
  /// until then, and an aborted push leaves the store untouched.
  Result<std::unique_ptr<PushHandle>> StartPush() override;

  Result<BufferSlice> Read(BlobId id, ByteRange range) const override;
  Result<uint64_t> Size(BlobId id) const override;
  Status Delete(BlobId id) override;
  bool Exists(BlobId id) const override;
  std::vector<BlobId> List() const override;

 private:
  friend class MemoryPushHandle;

  /// One BLOB: `size` published bytes at the front of `buffer` (whose
  /// extent is the capacity). `buffer` is null while the BLOB is empty.
  struct Blob {
    BufferRef buffer;
    uint64_t size = 0;
  };

  /// Registers a fully pushed buffer as a new BLOB and returns its id.
  BlobId Publish(BufferRef buffer, uint64_t size);

  std::map<BlobId, Blob> blobs_;
  BlobId next_id_ = 1;
};

}  // namespace tbm

#endif  // TBM_BLOB_MEMORY_STORE_H_
