#include <gtest/gtest.h>

#include <string>

#include "base/crc32.h"
#include "base/io.h"
#include "base/macros.h"
#include "base/result.h"
#include "base/status.h"

namespace tbm {
namespace {

// ---------------------------------------------------------------------------
// Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("thing is missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "thing is missing");
  EXPECT_EQ(s.ToString(), "NotFound: thing is missing");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::Corruption("bad bytes");
  Status copy = s;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad bytes");
  // Original unaffected by copying.
  EXPECT_TRUE(s.IsCorruption());
}

TEST(StatusTest, AssignmentReplacesState) {
  Status s = Status::IOError("disk");
  s = Status::OK();
  EXPECT_TRUE(s.ok());
  s = Status::OutOfRange("index");
  EXPECT_TRUE(s.IsOutOfRange());
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::InvalidArgument("negative");
  Status wrapped = s.WithContext("element 3");
  EXPECT_TRUE(wrapped.IsInvalidArgument());
  EXPECT_EQ(wrapped.message(), "element 3: negative");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, AllNamedConstructorsProduceTheirCode) {
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::Unsupported("").IsUnsupported());
  EXPECT_TRUE(Status::FailedPrecondition("").IsFailedPrecondition());
  EXPECT_TRUE(Status::ResourceExhausted("").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("").IsInternal());
}

// ---------------------------------------------------------------------------
// Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = *std::move(r);
  EXPECT_EQ(moved, "payload");
}

namespace macro_helpers {
Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}
Status UseValue(int v, int* out) {
  TBM_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return Status::OK();
}
Status Chain(int v, int* out) {
  TBM_RETURN_IF_ERROR(UseValue(v, out));
  return Status::OK();
}
}  // namespace macro_helpers

TEST(MacroTest, AssignOrReturnPassesValue) {
  int out = 0;
  EXPECT_TRUE(macro_helpers::Chain(21, &out).ok());
  EXPECT_EQ(out, 42);
}

TEST(MacroTest, AssignOrReturnPropagatesError) {
  int out = 0;
  Status s = macro_helpers::Chain(-1, &out);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(out, 0);
}

// ---------------------------------------------------------------------------
// Binary IO

TEST(BinaryIoTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-7);
  w.WriteI64(-1234567890123LL);
  w.WriteF64(3.25);

  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0xBEEF);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadI32(), -7);
  EXPECT_EQ(*r.ReadI64(), -1234567890123LL);
  EXPECT_EQ(*r.ReadF64(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

// The on-disk layout of every write, at the boundary values of each
// width: fixed-width integers little-endian, F64 as its IEEE bits,
// varints as LEB128 with zigzag for the signed form.
TEST(BinaryIoTest, WritesArePinnedLittleEndian) {
  auto bytes_of = [](auto write) {
    BinaryWriter w;
    write(w);
    return w.TakeBuffer();
  };
  using B = Bytes;
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU8(0); }), B({0x00}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU8(0xFF); }), B({0xFF}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU16(0x0102); }),
            B({0x02, 0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU16(0xFFFF); }),
            B({0xFF, 0xFF}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU32(0x01020304); }),
            B({0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU32(UINT32_MAX); }),
            B({0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(
      bytes_of([](BinaryWriter& w) { w.WriteU64(0x0102030405060708ull); }),
      B({0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteU64(UINT64_MAX); }),
            B(8, 0xFF));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteI32(-1); }), B(4, 0xFF));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteI32(INT32_MIN); }),
            B({0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteI32(INT32_MAX); }),
            B({0xFF, 0xFF, 0xFF, 0x7F}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteI64(INT64_MIN); }),
            B({0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteI64(INT64_MAX); }),
            B({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteF64(1.0); }),
            B({0, 0, 0, 0, 0, 0, 0xF0, 0x3F}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteF64(-0.0); }),
            B({0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarU64(0); }), B({0x00}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarU64(127); }),
            B({0x7F}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarU64(128); }),
            B({0x80, 0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarU64(16383); }),
            B({0xFF, 0x7F}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarU64(16384); }),
            B({0x80, 0x80, 0x01}));
  B max_varint(9, 0xFF);
  max_varint.push_back(0x01);
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarU64(UINT64_MAX); }),
            max_varint);
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(0); }), B({0x00}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(-1); }), B({0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(1); }), B({0x02}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(-64); }),
            B({0x7F}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(64); }),
            B({0x80, 0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(INT64_MAX); }),
            B({0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}));
  EXPECT_EQ(bytes_of([](BinaryWriter& w) { w.WriteVarI64(INT64_MIN); }),
            max_varint);
  // Writes append in order.
  EXPECT_EQ(bytes_of([](BinaryWriter& w) {
              w.WriteU8(1);
              w.WriteU16(0x0302);
              w.WriteVarU64(4);
              w.WriteU32(0x08070605);
            }),
            B({1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(BinaryIoTest, StringsAndBytes) {
  BinaryWriter w;
  w.WriteString("hello");
  w.WriteString("");
  Bytes blob = {1, 2, 3};
  w.WriteBytes(blob);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_EQ(*r.ReadBytes(), blob);
}

TEST(BinaryIoTest, TruncatedReadsAreCorruption) {
  BinaryWriter w;
  w.WriteU32(5);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadU64().status().IsCorruption());
  BinaryReader r2(w.buffer());
  EXPECT_TRUE(r2.ReadU32().ok());
  EXPECT_TRUE(r2.ReadU8().status().IsCorruption());
}

TEST(BinaryIoTest, TruncatedStringIsCorruption) {
  BinaryWriter w;
  w.WriteVarU64(100);  // Claims 100 bytes follow; none do.
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadString().status().IsCorruption());
}

// A varint too long for 64 bits is Corruption. The reader stops just
// past the byte that overflowed, so a following read starts there.
TEST(BinaryIoTest, VarintOverflowIsCorruption) {
  // Eleven continuation bytes: the eleventh can never fit.
  Bytes eleven(11, 0x80);
  eleven.push_back(0x07);
  BinaryReader r(eleven);
  auto v = r.ReadVarU64();
  ASSERT_TRUE(v.status().IsCorruption());
  EXPECT_EQ(v.status().message(), "varint overflow");
  EXPECT_EQ(r.position(), 11u);
  EXPECT_EQ(*r.ReadU8(), 0x07);
  EXPECT_TRUE(r.AtEnd());

  // A tenth byte with bits above bit 63 set.
  Bytes tenth(9, 0xFF);
  tenth.push_back(0x02);
  tenth.push_back(0x05);
  BinaryReader r2(tenth);
  auto s = r2.ReadVarI64();
  ASSERT_TRUE(s.status().IsCorruption());
  EXPECT_EQ(s.status().message(), "varint overflow");
  EXPECT_EQ(r2.position(), 10u);
  EXPECT_EQ(*r2.ReadU8(), 0x05);

  // Bit 63 alone in the tenth byte still fits.
  Bytes widest(9, 0xFF);
  widest.push_back(0x01);
  BinaryReader r3(widest);
  EXPECT_EQ(*r3.ReadVarU64(), UINT64_MAX);
  EXPECT_TRUE(r3.AtEnd());
}

// A varint cut before its last byte is Corruption; the reader has
// consumed what was there, so a following read fails too.
TEST(BinaryIoTest, VarintCutMidwayIsCorruption) {
  BinaryWriter w;
  w.WriteVarU64(uint64_t{1} << 40);  // Six bytes.
  w.WriteVarI64(-(int64_t{1} << 40));
  ASSERT_EQ(w.size(), 12u);
  for (size_t cut : {5u, 11u}) {
    Bytes prefix(w.buffer().begin(), w.buffer().begin() + cut);
    BinaryReader r(prefix);
    if (cut > 6) {
      ASSERT_EQ(*r.ReadVarU64(), uint64_t{1} << 40);
    }
    auto v = r.ReadVarI64();
    ASSERT_TRUE(v.status().IsCorruption()) << cut;
    EXPECT_EQ(v.status().message(),
              "truncated input: need 1 bytes at offset " +
                  std::to_string(cut) + ", have 0");
    EXPECT_EQ(r.position(), cut);
    EXPECT_TRUE(r.ReadU8().status().IsCorruption());
    EXPECT_TRUE(r.ReadVarU64().status().IsCorruption());
  }
  BinaryReader empty(ByteSpan{});
  EXPECT_TRUE(empty.ReadVarU64().status().IsCorruption());
  EXPECT_EQ(empty.position(), 0u);
}

// Property: varints round-trip across magnitudes and signs.
class VarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(VarintRoundTrip, Signed) {
  BinaryWriter w;
  w.WriteVarI64(GetParam());
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadVarI64(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

TEST_P(VarintRoundTrip, UnsignedOfAbs) {
  uint64_t v = static_cast<uint64_t>(GetParam());
  BinaryWriter w;
  w.WriteVarU64(v);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadVarU64(), v);
}

INSTANTIATE_TEST_SUITE_P(
    Magnitudes, VarintRoundTrip,
    ::testing::Values(0, 1, -1, 127, 128, -128, 300, -300, 1 << 20,
                      -(1 << 20), 1LL << 40, -(1LL << 40), INT64_MAX,
                      INT64_MIN + 1, INT64_MIN));

TEST(BinaryIoTest, SmallVarintsAreOneByte) {
  BinaryWriter w;
  w.WriteVarU64(127);
  EXPECT_EQ(w.size(), 1u);
  w.WriteVarU64(128);
  EXPECT_EQ(w.size(), 3u);  // Second varint takes two bytes.
}

TEST(BinaryIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/tbm_io_test.bin";
  Bytes data = {9, 8, 7, 6, 5};
  ASSERT_TRUE(WriteFile(path, data).ok());
  auto read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadFileBytes("/nonexistent/dir/file.bin").status().IsIOError());
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32Test, KnownVectors) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* digits = "123456789";
  Bytes data(digits, digits + 9);
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes{}), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<uint8_t>(i * 7));
  uint32_t crc = kCrc32Init;
  crc = Crc32Extend(crc, ByteSpan(data.data(), 400));
  crc = Crc32Extend(crc, ByteSpan(data.data() + 400, 600));
  EXPECT_EQ(Crc32Finish(crc), Crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data(64, 0x55);
  uint32_t original = Crc32(data);
  data[13] ^= 0x01;
  EXPECT_NE(Crc32(data), original);
}

// ---------------------------------------------------------------------------
// Byte helpers

TEST(BytesTest, ByteRangeOperations) {
  ByteRange a{10, 20};
  EXPECT_EQ(a.end(), 30u);
  EXPECT_TRUE(a.Contains(ByteRange{15, 5}));
  EXPECT_FALSE(a.Contains(ByteRange{15, 50}));
  EXPECT_TRUE(a.Overlaps(ByteRange{25, 10}));
  EXPECT_FALSE(a.Overlaps(ByteRange{30, 10}));  // Half-open: [30,..) touches.
  EXPECT_TRUE((ByteRange{0, 0}).empty());
}

TEST(BytesTest, HumanFormatting) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00 MiB");
  EXPECT_EQ(HumanRate(500.0), "500.00 B/s");
  EXPECT_EQ(HumanRate(500000.0), "500.00 kB/s");
}

}  // namespace
}  // namespace tbm
