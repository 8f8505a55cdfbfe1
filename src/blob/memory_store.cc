#include "blob/memory_store.h"

#include <algorithm>
#include <cstring>

#include "base/macros.h"
#include "blob/store_metrics.h"

namespace tbm {

namespace {
Status NoSuchBlob(BlobId id) {
  return Status::NotFound("no such BLOB: " + std::to_string(id));
}
}  // namespace

/// Push handle of MemoryBlobStore: accumulates into a growing buffer
/// (same doubling policy as Append) and publishes at Finish. The store
/// is only touched at publish time, so a dropped handle costs nothing.
class MemoryPushHandle final : public PushHandle {
 public:
  explicit MemoryPushHandle(MemoryBlobStore* store) : store_(store) {}

  ~MemoryPushHandle() override { Abort(); }

  Status Push(ByteSpan data) override {
    if (store_ == nullptr) {
      return Status::FailedPrecondition("push already finished or aborted");
    }
    const auto& metrics = blob_internal::StoreMetrics::Get();
    metrics.appends->Add();
    metrics.bytes_written->Add(data.size());
    const uint64_t capacity = buffer_ ? buffer_->size() : 0;
    if (size_ + data.size() > capacity) {
      uint64_t grown = std::max<uint64_t>(capacity * 2, 64);
      grown = std::max<uint64_t>(grown, size_ + data.size());
      BufferRef fresh = Buffer::Allocate(grown);
      if (size_ > 0) {
        std::memcpy(fresh->mutable_data(), buffer_->data(), size_);
      }
      buffer_ = std::move(fresh);
    }
    std::memcpy(buffer_->mutable_data() + size_, data.data(), data.size());
    size_ += data.size();
    return Status::OK();
  }

  Result<BlobId> Finish() override {
    if (store_ == nullptr) {
      return Status::FailedPrecondition("push already finished or aborted");
    }
    BlobId id = store_->Publish(std::move(buffer_), size_);
    store_ = nullptr;
    return id;
  }

  Status Abort() override {
    store_ = nullptr;
    buffer_ = nullptr;
    return Status::OK();
  }

  uint64_t bytes_pushed() const override { return size_; }

 private:
  MemoryBlobStore* store_;  ///< Null once finished or aborted.
  BufferRef buffer_;
  uint64_t size_ = 0;
};

Result<std::unique_ptr<PushHandle>> MemoryBlobStore::StartPush() {
  return std::unique_ptr<PushHandle>(std::make_unique<MemoryPushHandle>(this));
}

BlobId MemoryBlobStore::Publish(BufferRef buffer, uint64_t size) {
  BlobId id = next_id_++;
  blobs_.emplace(id, Blob{std::move(buffer), size});
  return id;
}

Result<BufferSlice> MemoryBlobStore::Read(BlobId id, ByteRange range) const {
  const auto& metrics = blob_internal::StoreMetrics::Get();
  metrics.reads->Add();
  metrics.bytes_read->Add(range.length);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return NoSuchBlob(id);
  const Blob& blob = it->second;
  TBM_RETURN_IF_ERROR(range.Validate());
  if (range.end() > blob.size) {
    return Status::OutOfRange(
        "read past end of BLOB " + std::to_string(id) + ": [" +
        std::to_string(range.offset) + ", " + std::to_string(range.end()) +
        ") of " + std::to_string(blob.size));
  }
  return BufferSlice(blob.buffer, range.offset, range.length);
}

Result<uint64_t> MemoryBlobStore::Size(BlobId id) const {
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return NoSuchBlob(id);
  return it->second.size;
}

Status MemoryBlobStore::Delete(BlobId id) {
  if (blobs_.erase(id) == 0) return NoSuchBlob(id);
  return Status::OK();
}

bool MemoryBlobStore::Exists(BlobId id) const { return blobs_.count(id) > 0; }

std::vector<BlobId> MemoryBlobStore::List() const {
  std::vector<BlobId> ids;
  ids.reserve(blobs_.size());
  for (const auto& [id, data] : blobs_) ids.push_back(id);
  return ids;
}

}  // namespace tbm
