// Pins TJPEG and TMPEG output byte for byte. The expected FNV-1a hashes
// were recorded with the dense inverse DCT, per-pixel std::lround store
// and per-pixel chroma gather that the decoder used before it learned to
// skip zero DCT terms, so they show that the fast paths change no byte.
// The same table must hold on every SIMD backend: the scalar-fallback CI
// job runs this file as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "codec/color.h"
#include "codec/synthetic.h"
#include "codec/tjpeg.h"
#include "codec/tmpeg.h"

namespace tbm {
namespace {

class Fnv1a {
 public:
  void Add(const uint8_t* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ data[i]) * 0x100000001b3ull;
    }
  }
  void Add(const BufferSlice& bytes) { Add(bytes.data(), bytes.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Per-pixel hashed noise: nearly every 8×8 block keeps dense AC terms.
Image NoiseImage(int32_t w, int32_t h) {
  Image out = Image::Zero(w, h, ColorModel::kRgb24);
  Bytes pixels(out.data.size(), 0);
  uint32_t state = 0x9e3779b9u;
  for (size_t i = 0; i < pixels.size(); ++i) {
    state = state * 1664525u + 1013904223u;
    pixels[i] = static_cast<uint8_t>(state >> 24);
  }
  out.data = std::move(pixels);
  return out;
}

Image AsSource(const Image& rgb, const std::string& source) {
  if (source == "gray") return *RgbToGray(rgb);
  if (source == "yuv420") return *RgbToYuv(rgb, ColorModel::kYuv420);
  return rgb;
}

struct TjpegCase {
  const char* image;  ///< "frame" (videogen scene 77, frame 3) or "noise".
  int32_t w, h;
  const char* source;  ///< "rgb", "gray" or "yuv420".
  uint64_t encoded_hash;
  uint64_t decoded_hash;
};

// Each row hashes qualities 1, 10, 50, 90 and 100 in that order.
constexpr TjpegCase kTjpegCases[] = {
    {"frame", 160, 120, "rgb", 0xfcd047f05afb5318ull,
     0xedc172f0799de9a0ull},
    {"frame", 160, 120, "gray", 0x744afd4a0d9160caull,
     0x4ad6d796aa3e4be1ull},
    {"frame", 160, 120, "yuv420", 0xc20c3c6068b3edf7ull,
     0x511469414862ee0dull},
    {"frame", 37, 23, "rgb", 0x6108323ff2ba385ull,
     0xf18f535adb2b64f4ull},
    {"frame", 37, 23, "gray", 0x35c2779821992c18ull,
     0xd4795de5f3034fffull},
    {"frame", 37, 23, "yuv420", 0x10c7e365b86b08eeull,
     0x931f1ce5047f1d3eull},
    {"frame", 1, 1, "rgb", 0x42bb23c8c29348fbull,
     0x9dc22036973ef5ecull},
    {"frame", 1, 1, "gray", 0xee45476c33b2ecfcull,
     0xab5312a117de7911ull},
    {"frame", 1, 1, "yuv420", 0x808405147bf91a6cull,
     0xdd78fa47c6837259ull},
    {"frame", 161, 121, "rgb", 0x11df6628446e6111ull,
     0xc99ba3ec30e61817ull},
    {"frame", 161, 121, "gray", 0x2058aa100188f033ull,
     0x3e707394be1ed7a1ull},
    {"frame", 161, 121, "yuv420", 0xbbf50d96a2628ba2ull,
     0xf6b1503270fa74cfull},
    {"noise", 64, 48, "rgb", 0x64782ed9355b96b7ull,
     0x84486796f7088bfdull},
    {"noise", 64, 48, "gray", 0xde89128893178690ull,
     0x7121724980293c51ull},
    {"noise", 64, 48, "yuv420", 0xd340782edb37e1f4ull,
     0xba84ebcdce36af5ull},
};

TEST(TjpegGoldenTest, DecodeIsByteExact) {
  for (const TjpegCase& c : kTjpegCases) {
    std::string name = std::string(c.image) + " " + std::to_string(c.w) +
                       "x" + std::to_string(c.h) + " " + c.source;
    Image rgb = std::string(c.image) == "noise"
                    ? NoiseImage(c.w, c.h)
                    : videogen::Frame(c.w, c.h, 3, 77);
    Image input = AsSource(rgb, c.source);
    Fnv1a encoded_hash, decoded_hash;
    for (int quality : {1, 10, 50, 90, 100}) {
      auto encoded = TjpegEncode(input, quality);
      ASSERT_TRUE(encoded.ok()) << name << " q" << quality;
      encoded_hash.Add(encoded->data(), encoded->size());
      auto decoded = TjpegDecode(*encoded);
      ASSERT_TRUE(decoded.ok()) << name << " q" << quality;
      EXPECT_EQ(decoded->model, input.model) << name;
      decoded_hash.Add(decoded->data);
    }
    EXPECT_EQ(encoded_hash.value(), c.encoded_hash)
        << name << ": encoded 0x" << std::hex << encoded_hash.value();
    EXPECT_EQ(decoded_hash.value(), c.decoded_hash)
        << name << ": decoded 0x" << std::hex << decoded_hash.value();
  }
}

struct YuvCase {
  ColorModel model;
  uint64_t hash;
};

// The YUV→RGB step of a TJPEG decode, at every subsampling.
constexpr YuvCase kYuvCases[] = {
    {ColorModel::kYuv444, 0xaf2a5e4f4ae81c24ull},
    {ColorModel::kYuv422, 0xeb2bd267e1881e47ull},
    {ColorModel::kYuv420, 0x6084b9db8477ab91ull},
};

TEST(TjpegGoldenTest, YuvToRgbIsByteExact) {
  for (const YuvCase& c : kYuvCases) {
    Fnv1a hash;
    // Odd widths leave a partial group of one to three pixels per row.
    for (auto [w, h] : {std::pair{37, 23}, {1, 1}, {6, 5}, {161, 121}}) {
      auto yuv = RgbToYuv(videogen::Frame(w, h, 3, 77), c.model);
      ASSERT_TRUE(yuv.ok());
      auto rgb = YuvToRgb(*yuv);
      ASSERT_TRUE(rgb.ok());
      hash.Add(rgb->data);
    }
    EXPECT_EQ(hash.value(), c.hash)
        << ColorModelToString(c.model) << ": 0x" << std::hex << hash.value();
  }
}

// The RGB→YUV step of a TJPEG or TMPEG encode, at every subsampling.
// These hashes were recorded with the per-pixel chroma accumulators the
// encoder used before RgbToYuv ran in lanes, so they show that summing
// each chroma cell in registers changes no byte.
constexpr YuvCase kRgbToYuvCases[] = {
    {ColorModel::kYuv444, 0xc80b3922273456a7ull},
    {ColorModel::kYuv422, 0x02d4045f6e3f872bull},
    {ColorModel::kYuv420, 0x1817cd5bcb2a8a0aull},
};

TEST(TjpegGoldenTest, RgbToYuvIsByteExact) {
  for (const YuvCase& c : kRgbToYuvCases) {
    Fnv1a hash;
    // Odd sizes leave partial chroma cells on the right and bottom edge.
    for (auto [w, h] : {std::pair{160, 120}, {161, 121}, {37, 23}, {1, 1}}) {
      auto yuv = RgbToYuv(videogen::Frame(w, h, 3, 77), c.model);
      ASSERT_TRUE(yuv.ok());
      hash.Add(yuv->data);
    }
    // Noise gives chroma sums whose rounding depends on their order.
    for (auto [w, h] : {std::pair{64, 48}, {160, 120}}) {
      auto yuv = RgbToYuv(NoiseImage(w, h), c.model);
      ASSERT_TRUE(yuv.ok());
      hash.Add(yuv->data);
    }
    EXPECT_EQ(hash.value(), c.hash)
        << ColorModelToString(c.model) << ": 0x" << std::hex << hash.value();
  }
}

struct TmpegCase {
  const char* name;
  bool motion_compensation;
  bool bidirectional;
  uint64_t encoded_hash;
  uint64_t decoded_hash;
};

constexpr TmpegCase kTmpegCases[] = {
    {"plain", false, false, 0xfd1ab98bdad1ce02ull,
     0x22d6bc455e52475bull},
    {"motion", true, false, 0x60c385e8d713d9d0ull,
     0x88f711f2281c9c5eull},
    {"bidirectional", false, true, 0x3155735ad4f59117ull,
     0x5c683a6f1daaab18ull},
};

// Encoding runs the decoder too: each delta is coded against the
// encoder's own reconstruction of the previous frame.
TEST(TjpegGoldenTest, TmpegIsByteExact) {
  std::vector<Image> clip = videogen::Clip(96, 64, 8, 9);
  for (const TmpegCase& c : kTmpegCases) {
    TmpegConfig config;
    config.quality = 50;
    config.key_interval = 4;
    config.motion_compensation = c.motion_compensation;
    config.bidirectional = c.bidirectional;
    auto encoded = TmpegEncodeSequence(clip, config);
    ASSERT_TRUE(encoded.ok()) << c.name;
    Fnv1a encoded_hash, decoded_hash;
    for (const TmpegFrame& frame : *encoded) encoded_hash.Add(frame.data);
    auto decoded = TmpegDecodeSequence(*encoded);
    ASSERT_TRUE(decoded.ok()) << c.name;
    ASSERT_EQ(decoded->size(), clip.size()) << c.name;
    for (const Image& frame : *decoded) decoded_hash.Add(frame.data);
    EXPECT_EQ(encoded_hash.value(), c.encoded_hash)
        << c.name << ": encoded 0x" << std::hex << encoded_hash.value();
    EXPECT_EQ(decoded_hash.value(), c.decoded_hash)
        << c.name << ": decoded 0x" << std::hex << decoded_hash.value();
  }
}

// ---------------------------------------------------------------------------
// Hostile input: a damaged payload must decode or fail with Corruption,
// never read outside its buffers. The ASan build runs these as well.

// Encoded sources with partial edge blocks: a videogen frame (mostly
// DC-only blocks) and noise (dense AC terms), colour and gray.
std::vector<std::pair<std::string, Bytes>> HostileSources() {
  std::vector<std::pair<std::string, Bytes>> sources;
  sources.emplace_back("frame",
                       *TjpegEncode(videogen::Frame(37, 23, 3, 77), 50));
  sources.emplace_back("noise", *TjpegEncode(NoiseImage(37, 23), 90));
  sources.emplace_back("gray noise",
                       *TjpegEncode(*RgbToGray(NoiseImage(21, 13)), 90));
  return sources;
}

TEST(TjpegTest, EveryPrefixIsCorruption) {
  for (const auto& [name, encoded] : HostileSources()) {
    ASSERT_TRUE(TjpegDecode(encoded).ok()) << name;
    for (size_t n = 0; n < encoded.size(); ++n) {
      auto decoded = TjpegDecode(ByteSpan(encoded).first(n));
      ASSERT_TRUE(decoded.status().IsCorruption())
          << name << " cut at " << n << " of " << encoded.size() << ": "
          << decoded.status();
    }
  }
}

TEST(TjpegTest, ByteMutantsDecodeOrFailAsCorruption) {
  const auto sources = HostileSources();
  constexpr uint32_t kMutants = 2000;
  for (uint32_t seed = 0; seed < kMutants; ++seed) {
    const auto& [name, encoded] = sources[seed % sources.size()];
    std::mt19937 rng(seed);
    Bytes mutant = encoded;
    for (uint32_t edits = 1 + rng() % 4; edits > 0; --edits) {
      mutant[rng() % mutant.size()] = static_cast<uint8_t>(rng());
    }
    auto decoded = TjpegDecode(mutant);
    if (decoded.ok()) {
      ASSERT_TRUE(decoded->Validate().ok()) << name << " seed " << seed;
      continue;
    }
    ASSERT_TRUE(decoded.status().IsCorruption())
        << name << " seed " << seed << ": " << decoded.status();
  }
}

}  // namespace
}  // namespace tbm
