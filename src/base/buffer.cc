#include "base/buffer.h"

#include <atomic>

namespace tbm {
namespace {

uint64_t NextBufferId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Buffer::Buffer(const uint8_t* data, uint8_t* writable, size_t size,
               std::shared_ptr<const void> owner)
    : data_(data),
      writable_(writable),
      size_(size),
      owner_(std::move(owner)),
      id_(NextBufferId()) {}

BufferRef Buffer::FromBytes(Bytes bytes) {
  auto owner = std::make_shared<Bytes>(std::move(bytes));
  uint8_t* data = owner->data();
  size_t size = owner->size();
  return BufferRef(new Buffer(data, data, size, std::move(owner)));
}

BufferRef Buffer::Allocate(size_t size) {
  return FromBytes(Bytes(size, 0));
}

BufferRef Buffer::CopyOf(ByteSpan span) {
  return FromBytes(Bytes(span.begin(), span.end()));
}

BufferRef Buffer::Wrap(const void* data, size_t size,
                       std::shared_ptr<const void> owner) {
  return BufferRef(new Buffer(static_cast<const uint8_t*>(data),
                              /*writable=*/nullptr, size, std::move(owner)));
}

BufferSlice::BufferSlice(BufferRef buffer, size_t offset, size_t length)
    : buffer_(std::move(buffer)) {
  const size_t extent = buffer_ ? buffer_->size() : 0;
  offset_ = std::min(offset, extent);
  length_ = std::min(length, extent - offset_);
  if (length_ == 0) {
    buffer_ = nullptr;
    offset_ = 0;
  }
}

BufferSlice BufferSlice::CopyOf(ByteSpan span) {
  if (span.empty()) return BufferSlice();
  return BufferSlice(Buffer::CopyOf(span));
}

BufferSlice BufferSlice::Slice(size_t pos, size_t count) const {
  if (pos >= length_) return BufferSlice();
  return BufferSlice(buffer_, offset_ + pos, std::min(count, length_ - pos));
}

}  // namespace tbm
