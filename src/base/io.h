#ifndef TBM_BASE_IO_H_
#define TBM_BASE_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"

namespace tbm {

/// Little-endian binary serializer used for catalog persistence and
/// on-disk BLOB metadata. All multi-byte integers are written
/// little-endian; variable-length integers use LEB128. The fixed-width
/// and varint writes are inline: codec bitstreams write a varint per
/// coefficient and catalog snapshots several integers per row.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU16(uint16_t v) { WriteLittleEndian(v); }
  void WriteU32(uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(uint64_t v) { WriteLittleEndian(v); }
  void WriteI32(int32_t v) { WriteLittleEndian(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteLittleEndian(static_cast<uint64_t>(v)); }
  void WriteF64(double v) { WriteLittleEndian(std::bit_cast<uint64_t>(v)); }
  /// Unsigned LEB128 varint.
  void WriteVarU64(uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buffer_.push_back(static_cast<uint8_t>(v));
  }
  /// Zigzag-encoded signed varint.
  void WriteVarI64(int64_t v) {
    // Zigzag encoding maps small negative values to small varints.
    WriteVarU64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }
  /// Length-prefixed (varint) string.
  void WriteString(std::string_view s);
  /// Length-prefixed (varint) byte buffer.
  void WriteBytes(ByteSpan b);
  /// Raw bytes, no length prefix.
  void WriteRaw(ByteSpan b);

  const Bytes& buffer() const { return buffer_; }
  Bytes TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  // One resize and one copy; byte by byte only on a big-endian host.
  template <typename T>
  void WriteLittleEndian(T v) {
    const size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    uint8_t* p = buffer_.data() + at;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<uint8_t>(v >> (8 * i));
      }
    }
  }

  Bytes buffer_;
};

/// Little-endian binary deserializer matching BinaryWriter. All reads
/// are bounds-checked and return Corruption on truncated input.
class BinaryReader {
 public:
  explicit BinaryReader(ByteSpan data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  /// Unsigned LEB128 varint. Inline: codec bitstreams read one per
  /// coefficient.
  Result<uint64_t> ReadVarU64();
  /// Zigzag-encoded signed varint.
  Result<int64_t> ReadVarI64();
  Result<std::string> ReadString();
  Result<Bytes> ReadBytes();
  /// Reads exactly `n` raw bytes.
  Result<Bytes> ReadRaw(size_t n);

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const {
    if (n > data_.size() - pos_) [[unlikely]] return Truncated(n);
    return Status::OK();
  }
  // Failures are built out of line, so the inline reads stay small.
  [[gnu::cold]] Status Truncated(size_t n) const;
  [[gnu::cold]] static Status VarintOverflow();
  template <typename T>
  [[gnu::cold, gnu::noinline]] static Result<T> Fail(Status error) {
    return error;
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

inline Result<uint64_t> BinaryReader::ReadVarU64() {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (pos_ == data_.size()) [[unlikely]] {
      return Fail<uint64_t>(Truncated(1));
    }
    const uint8_t byte = data_[pos_++];
    // The tenth byte may carry only bit 63; an eleventh never fits.
    if (shift >= 63 && (shift > 63 || (byte & 0x7E))) [[unlikely]] {
      return Fail<uint64_t>(VarintOverflow());
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return v;
  }
}

inline Result<int64_t> BinaryReader::ReadVarI64() {
  auto r = ReadVarU64();
  if (!r.ok()) [[unlikely]] return Fail<int64_t>(r.status());
  const uint64_t zz = *r;
  return static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
}

/// Writes `data` to `path`, replacing any existing file.
Status WriteFile(const std::string& path, ByteSpan data);

/// Reads the entire file at `path`.
Result<Bytes> ReadFileBytes(const std::string& path);

}  // namespace tbm

#endif  // TBM_BASE_IO_H_
