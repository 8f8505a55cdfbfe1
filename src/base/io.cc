#include "base/io.h"

#include <cstdio>
#include <cstring>

namespace tbm {

void BinaryWriter::WriteString(std::string_view s) {
  WriteVarU64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteBytes(ByteSpan b) {
  WriteVarU64(b.size());
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

void BinaryWriter::WriteRaw(ByteSpan b) {
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

Status BinaryReader::Truncated(size_t n) const {
  return Status::Corruption("truncated input: need " + std::to_string(n) +
                            " bytes at offset " + std::to_string(pos_) +
                            ", have " + std::to_string(data_.size() - pos_));
}

Status BinaryReader::VarintOverflow() {
  return Status::Corruption("varint overflow");
}

Result<uint8_t> BinaryReader::ReadU8() {
  if (auto s = Need(1); !s.ok()) return s;
  return data_[pos_++];
}

Result<uint16_t> BinaryReader::ReadU16() {
  if (auto s = Need(2); !s.ok()) return s;
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() {
  if (auto s = Need(4); !s.ok()) return s;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  if (auto s = Need(8); !s.ok()) return s;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int32_t> BinaryReader::ReadI32() {
  auto r = ReadU32();
  if (!r.ok()) return r.status();
  return static_cast<int32_t>(*r);
}

Result<int64_t> BinaryReader::ReadI64() {
  auto r = ReadU64();
  if (!r.ok()) return r.status();
  return static_cast<int64_t>(*r);
}

Result<double> BinaryReader::ReadF64() {
  auto r = ReadU64();
  if (!r.ok()) return r.status();
  double v;
  uint64_t bits = *r;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  auto len = ReadVarU64();
  if (!len.ok()) return len.status();
  if (auto s = Need(*len); !s.ok()) return s;
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return out;
}

Result<Bytes> BinaryReader::ReadBytes() {
  auto len = ReadVarU64();
  if (!len.ok()) return len.status();
  return ReadRaw(*len);
}

Result<Bytes> BinaryReader::ReadRaw(size_t n) {
  if (auto s = Need(n); !s.ok()) return s;
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Status WriteFile(const std::string& path, ByteSpan data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for write: " + path);
  }
  size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for read: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("cannot stat: " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  Bytes out(static_cast<size_t>(size));
  size_t got = size == 0 ? 0 : std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) {
    return Status::IOError("short read: " + path);
  }
  return out;
}

}  // namespace tbm
