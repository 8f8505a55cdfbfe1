#include "blob/chunk_reader.h"

#include <memory>
#include <string>

#include "base/macros.h"
#include "blob/blob_store.h"

namespace tbm {

Result<BufferSlice> ChunkReader::ReadChunk(uint64_t index) const {
  if (index >= chunk_count()) {
    return Status::OutOfRange("chunk " + std::to_string(index) +
                              " out of range (BLOB has " +
                              std::to_string(chunk_count()) + " chunks)");
  }
  return ReadWithPolicy(*store_, id_, ChunkRange(index), options_.policy);
}

Result<std::unique_ptr<ChunkReader>> BlobStore::OpenChunkReader(
    BlobId id, const ChunkReaderOptions& options) const {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk size must be positive");
  }
  TBM_ASSIGN_OR_RETURN(uint64_t size, Size(id));
  return std::unique_ptr<ChunkReader>(
      new ChunkReader(this, id, size, options));
}

}  // namespace tbm
