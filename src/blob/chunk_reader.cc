#include "blob/chunk_reader.h"

#include <limits>
#include <memory>
#include <string>

#include "base/macros.h"
#include "blob/blob_store.h"

namespace tbm {

Status ValidateChunkSize(uint64_t chunk_size) {
  if (chunk_size == 0 || chunk_size > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("chunk size " + std::to_string(chunk_size) +
                                   " outside [1, 2^32 - 1]");
  }
  return Status::OK();
}

Result<BufferSlice> ChunkReader::ReadChunk(uint64_t index) const {
  if (index >= chunk_count()) {
    return Status::OutOfRange("chunk " + std::to_string(index) +
                              " out of range (BLOB has " +
                              std::to_string(chunk_count()) + " chunks)");
  }
  return ReadWithPolicy(*store_, id_, ChunkRange(index), policy_);
}

Result<std::unique_ptr<ChunkReader>> BlobStore::OpenChunkReader(
    BlobId id, uint64_t chunk_size, ReadPolicy policy) const {
  TBM_RETURN_IF_ERROR(ValidateChunkSize(chunk_size));
  TBM_ASSIGN_OR_RETURN(uint64_t size, Size(id));
  return std::unique_ptr<ChunkReader>(
      new ChunkReader(this, id, size, static_cast<uint32_t>(chunk_size),
                      std::move(policy)));
}

}  // namespace tbm
