#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "base/io.h"
#include "base/simd.h"
#include "codec/adpcm.h"
#include "codec/color.h"
#include "codec/dct.h"
#include "codec/pcm.h"
#include "codec/rle.h"
#include "codec/synthetic.h"
#include "codec/tjpeg.h"
#include "codec/tmpeg.h"

namespace tbm {
namespace {

// ---------------------------------------------------------------------------
// Image basics

TEST(ImageTest, ExpectedBytesPerModel) {
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kGray8), 100u);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kRgb24), 300u);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kYuv444), 300u);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kYuv422),
            100u + 2u * 5 * 10);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kYuv420),
            100u + 2u * 5 * 5);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kCmyk32), 400u);
  // Odd dimensions round chroma up.
  EXPECT_EQ(Image::ExpectedBytes(11, 11, ColorModel::kYuv420),
            121u + 2u * 6 * 6);
}

TEST(ImageTest, ValidateCatchesBadSizes) {
  Image img = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(img.Validate().ok());
  img.data = img.data.Slice(0, img.data.size() - 1);
  EXPECT_TRUE(img.Validate().IsInvalidArgument());
  Image degenerate;
  EXPECT_TRUE(degenerate.Validate().IsInvalidArgument());
}

TEST(ImageTest, PsnrBehaviour) {
  Image a = videogen::Still(32, 32, 1);
  EXPECT_EQ(*Psnr(a, a), 99.0);  // Identical.
  Image b = a;
  Bytes tweaked = b.data.MutableCopy();
  tweaked[0] = static_cast<uint8_t>(tweaked[0] ^ 0x80);
  b.data = std::move(tweaked);
  double psnr = *Psnr(a, b);
  EXPECT_LT(psnr, 99.0);
  EXPECT_GT(psnr, 30.0);  // One flipped byte barely moves PSNR.
  Image c = Image::Zero(16, 16, ColorModel::kRgb24);
  EXPECT_TRUE(Psnr(a, c).status().IsInvalidArgument());  // Geometry mismatch.
}

// ---------------------------------------------------------------------------
// Color conversions

TEST(ColorTest, RgbYuvRoundTripIsNearLossless444) {
  Image rgb = videogen::Still(64, 48, 7);
  auto yuv = RgbToYuv(rgb, ColorModel::kYuv444);
  ASSERT_TRUE(yuv.ok());
  auto back = YuvToRgb(*yuv);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(*Psnr(rgb, *back), 45.0);
}

TEST(ColorTest, SubsamplingDegradesGracefully) {
  Image rgb = videogen::Still(64, 48, 7);
  auto yuv422 = RgbToYuv(rgb, ColorModel::kYuv422);
  auto yuv420 = RgbToYuv(rgb, ColorModel::kYuv420);
  ASSERT_TRUE(yuv422.ok() && yuv420.ok());
  double psnr422 = *Psnr(rgb, *YuvToRgb(*yuv422));
  double psnr420 = *Psnr(rgb, *YuvToRgb(*yuv420));
  EXPECT_GT(psnr422, 35.0);
  EXPECT_GE(psnr422, psnr420 - 0.5);  // 4:2:2 keeps more chroma than 4:2:0.
  // The paper's size claim: subsampling shrinks the image data.
  EXPECT_LT(yuv422->data.size(), rgb.data.size());
  EXPECT_LT(yuv420->data.size(), yuv422->data.size());
}

TEST(ColorTest, GrayPixelsSurviveYuv) {
  Image rgb = Image::Zero(16, 16, ColorModel::kRgb24);
  rgb.data = Bytes(rgb.data.size(), 128);
  auto yuv = RgbToYuv(rgb, ColorModel::kYuv420);
  ASSERT_TRUE(yuv.ok());
  auto back = YuvToRgb(*yuv);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < back->data.size(); ++i) {
    EXPECT_NEAR(back->data[i], 128, 2);
  }
}

// One 4:4:4 image holds every (Y, U, V) byte triple once; each pixel
// must equal the per-pixel BT.601 inverse, clamped to [0, 255] and then
// rounded to nearest even, from the four-lane step and from the one
// YuvToRgb dispatches to.
TEST(ColorTest, YuvToRgbMatchesScalarEveryTriple) {
  constexpr int32_t kSide = 4096;  // 2^24 pixels.
  constexpr size_t kPixels = size_t{kSide} * kSide;
  Bytes planes(3 * kPixels);
  for (size_t i = 0; i < kPixels; ++i) {
    planes[i] = static_cast<uint8_t>(i >> 16);
    planes[kPixels + i] = static_cast<uint8_t>(i >> 8);
    planes[2 * kPixels + i] = static_cast<uint8_t>(i);
  }
  const Image yuv{kSide, kSide, ColorModel::kYuv444, std::move(planes)};
  auto to_byte = [](float x) {
    return static_cast<uint8_t>(std::nearbyintf(std::clamp(x, 0.0f, 255.0f)));
  };
  std::vector<color_internal::YuvRowsFn> steps = {nullptr};
  if (color_internal::ActiveYuvRows() != nullptr) {
    steps.push_back(color_internal::ActiveYuvRows());
  }
  for (color_internal::YuvRowsFn step : steps) {
    auto rgb = color_internal::YuvToRgbWith(yuv, step);
    ASSERT_TRUE(rgb.ok());
    size_t mismatches = 0;
    for (size_t i = 0; i < kPixels; ++i) {
      const float y = static_cast<float>(i >> 16);
      const float u = static_cast<float>((i >> 8) & 0xFF) - 128.0f;
      const float v = static_cast<float>(i & 0xFF) - 128.0f;
      const uint8_t want[3] = {
          to_byte(y + 1.402f * v),
          to_byte(y - 0.344136f * u - 0.714136f * v),
          to_byte(y + 1.772f * u)};
      if (std::memcmp(want, rgb->data.data() + 3 * i, 3) != 0 &&
          mismatches++ == 0) {
        ADD_FAILURE() << (step == nullptr ? "four-lane" : "dispatched")
                      << " step: first mismatch at Y=" << (i >> 16)
                      << " U=" << ((i >> 8) & 0xFF) << " V=" << (i & 0xFF);
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(ColorTest, WrongInputModelRejected) {
  Image gray = Image::Zero(8, 8, ColorModel::kGray8);
  EXPECT_TRUE(RgbToYuv(gray, ColorModel::kYuv420).status().IsInvalidArgument());
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(RgbToYuv(rgb, ColorModel::kRgb24).status().IsInvalidArgument());
  EXPECT_TRUE(YuvToRgb(rgb).status().IsInvalidArgument());
  EXPECT_TRUE(CmykToRgb(rgb).status().IsInvalidArgument());
}

TEST(ColorTest, CmykSeparationRoundTrip) {
  Image rgb = videogen::Still(32, 32, 3);
  SeparationParams params;  // Full black generation + UCR.
  auto cmyk = RgbToCmyk(rgb, params);
  ASSERT_TRUE(cmyk.ok());
  EXPECT_EQ(cmyk->model, ColorModel::kCmyk32);
  auto back = CmykToRgb(*cmyk);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(*Psnr(rgb, *back), 35.0);
}

TEST(ColorTest, SeparationParametersMatter) {
  // Paper: "the mapping from RGB into the CMYK color model is not
  // unique" — different parameters give different plates.
  Image rgb = videogen::Still(32, 32, 3);
  auto full = RgbToCmyk(rgb, SeparationParams{1.0, 1.0});
  auto none = RgbToCmyk(rgb, SeparationParams{0.0, 0.0});
  ASSERT_TRUE(full.ok() && none.ok());
  EXPECT_NE(full->data, none->data);
  // With black_generation = 0, the K plate is empty.
  auto k_plate = CmykPlate(*none, 3);
  ASSERT_TRUE(k_plate.ok());
  for (uint8_t v : k_plate->data) EXPECT_EQ(v, 0);
}

TEST(ColorTest, PlatesExtractChannels) {
  Image rgb = videogen::Still(16, 16, 5);
  auto cmyk = RgbToCmyk(rgb, SeparationParams{});
  ASSERT_TRUE(cmyk.ok());
  for (int channel = 0; channel < 4; ++channel) {
    auto plate = CmykPlate(*cmyk, channel);
    ASSERT_TRUE(plate.ok());
    EXPECT_EQ(plate->model, ColorModel::kGray8);
  }
  EXPECT_TRUE(CmykPlate(*cmyk, 4).status().IsInvalidArgument());
}

// The AVX2 4:2:0 step against the four-lane step, byte for byte, on
// every geometry that splits a row between them: full 16-column steps,
// a row's last <16 columns, an odd last row, and the 4:4:4 and 4:2:2
// models the AVX2 step never takes.
TEST(ColorTest, RgbToYuvDispatchedMatchesFourLane) {
  using color_internal::RgbToYuvWith;
  std::mt19937 rng(29);
  auto noise = [&](int32_t w, int32_t h) {
    Bytes pixels(Image::ExpectedBytes(w, h, ColorModel::kRgb24));
    for (uint8_t& b : pixels) b = static_cast<uint8_t>(rng());
    return Image{w, h, ColorModel::kRgb24, std::move(pixels)};
  };
  auto expect_match = [](const Image& rgb, const std::string& what) {
    for (ColorModel model :
         {ColorModel::kYuv444, ColorModel::kYuv422, ColorModel::kYuv420}) {
      auto four_lane = RgbToYuvWith(rgb, model, nullptr);
      auto dispatched = RgbToYuv(rgb, model);
      ASSERT_TRUE(four_lane.ok() && dispatched.ok()) << what;
      ASSERT_EQ(four_lane->data, dispatched->data)
          << what << " model " << static_cast<int>(model);
    }
  };
  for (int32_t h = 1; h <= 5; ++h) {
    for (int32_t w = 1; w <= 48; ++w) {
      expect_match(noise(w, h),
                   "noise " + std::to_string(w) + "x" + std::to_string(h));
    }
  }
  for (uint8_t level : {0, 255}) {
    Image flat = Image::Zero(48, 4, ColorModel::kRgb24);
    flat.data = Bytes(flat.data.size(), level);
    expect_match(flat, "flat " + std::to_string(level));
  }
  expect_match(noise(160, 120), "noise 160x120");
  expect_match(noise(161, 121), "noise 161x121");
  // The scenes perfbench ingest encodes: 8 clips of 10 frames.
  for (uint32_t scene = 1000; scene < 1008; ++scene) {
    for (const Image& frame : videogen::Clip(160, 120, 10, scene)) {
      expect_match(frame, "scene " + std::to_string(scene));
    }
  }
#if defined(TBM_SIMD_AVX2)
  // Only a build with the AVX2 step can leave it unchecked.
  if (color_internal::ActiveCells420() == nullptr) {
    GTEST_SKIP() << "the CPU lacks AVX2: only the four-lane step was "
                    "checked";
  }
#endif
}

// The AVX2 YuvToRgb step against the four-lane step, byte for byte,
// on every geometry that splits a chroma row between them: full
// 16-column steps, a row's last <16 columns, an odd last row, and each
// YUV model. On a build without the AVX2 step both paths are the
// four-lane one.
TEST(ColorTest, YuvToRgbDispatchedMatchesFourLane) {
  using color_internal::YuvToRgbWith;
  std::mt19937 rng(31);
  auto planes = [&](int32_t w, int32_t h, ColorModel model, int level) {
    Bytes pixels(Image::ExpectedBytes(w, h, model));
    for (uint8_t& b : pixels) {
      b = static_cast<uint8_t>(level < 0 ? rng() : level);
    }
    return Image{w, h, model, std::move(pixels)};
  };
  auto expect_match = [&](int32_t w, int32_t h, int level) {
    for (ColorModel model :
         {ColorModel::kYuv444, ColorModel::kYuv422, ColorModel::kYuv420}) {
      const Image yuv = planes(w, h, model, level);
      auto four_lane = YuvToRgbWith(yuv, nullptr);
      auto dispatched = YuvToRgb(yuv);
      ASSERT_TRUE(four_lane.ok() && dispatched.ok());
      ASSERT_EQ(four_lane->data, dispatched->data)
          << w << "x" << h << " level " << level << " model "
          << static_cast<int>(model);
    }
  };
  for (int level : {-1, 0, 255}) {
    for (int32_t h = 1; h <= 5; ++h) {
      for (int32_t w = 1; w <= 48; ++w) expect_match(w, h, level);
    }
    expect_match(160, 120, level);
    expect_match(161, 121, level);
  }
#if defined(TBM_SIMD_AVX2)
  // Only a build with the AVX2 step can leave it unchecked.
  if (color_internal::ActiveYuvRows() == nullptr) {
    GTEST_SKIP() << "the CPU lacks AVX2: only the four-lane step was "
                    "checked";
  }
#endif
}

TEST(ColorTest, BadSeparationParamsRejected) {
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(
      RgbToCmyk(rgb, SeparationParams{1.5, 0.5}).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// PCM

TEST(PcmTest, BytesRoundTrip) {
  AudioBuffer audio = audiogen::Sine(8000, 2, 440.0, 0.5, 0.25);
  Bytes bytes = audio.ToBytes();
  EXPECT_EQ(bytes.size(), audio.samples.size() * 2);
  auto restored = AudioBuffer::FromBytes(bytes, 8000, 2);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->samples, audio.samples);
}

TEST(PcmTest, GeneratorsProduceExpectedShapes) {
  AudioBuffer sine = audiogen::Sine(44100, 2, 440.0, 0.8, 1.0);
  EXPECT_EQ(sine.FrameCount(), 44100);
  EXPECT_NEAR(PeakAmplitude(sine), 0.8 * 32767, 100);
  EXPECT_NEAR(RmsAmplitude(sine), 0.8 * 32767 / std::sqrt(2.0), 200);

  AudioBuffer silence = audiogen::Silence(44100, 1, 0.5);
  EXPECT_EQ(PeakAmplitude(silence), 0);

  AudioBuffer noise = audiogen::Noise(44100, 1, 0.5, 0.5, 99);
  EXPECT_GT(RmsAmplitude(noise), 0.0);
  // Determinism.
  AudioBuffer noise2 = audiogen::Noise(44100, 1, 0.5, 0.5, 99);
  EXPECT_EQ(noise.samples, noise2.samples);
}

TEST(PcmTest, ValidateCatchesErrors) {
  AudioBuffer bad;
  bad.channels = 2;
  bad.samples = std::vector<int16_t>{1, 2, 3};  // Not divisible by channels.
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  bad.samples = std::vector<int16_t>{1, 2};
  bad.sample_rate = 0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(PcmTest, SnrOfIdenticalIsSentinel) {
  AudioBuffer a = audiogen::Sine(8000, 1, 220.0, 0.5, 0.1);
  EXPECT_EQ(*AudioSnr(a, a), 99.0);
}

// ---------------------------------------------------------------------------
// ADPCM (heterogeneous elements)

TEST(AdpcmTest, RoundTripQuality) {
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.6, 0.5);
  auto blocks = AdpcmEncode(audio, 1024);
  ASSERT_TRUE(blocks.ok());
  auto decoded = AdpcmDecode(*blocks, 44100, 2);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->samples.size(), audio.samples.size());
  EXPECT_GT(*AudioSnr(audio, *decoded), 20.0);  // 4-bit ADPCM ≈ 20-30 dB.
}

TEST(AdpcmTest, CompressionIsFourToOne) {
  AudioBuffer audio = audiogen::Noise(44100, 2, 0.3, 1.0, 5);
  auto blocks = AdpcmEncode(audio, 4096);
  ASSERT_TRUE(blocks.ok());
  size_t encoded = 0;
  for (const AdpcmBlock& block : *blocks) encoded += block.data.size();
  size_t raw = audio.samples.size() * 2;
  EXPECT_NEAR(static_cast<double>(raw) / encoded, 4.0, 0.05);
}

TEST(AdpcmTest, BlockStateVariesAcrossBlocks) {
  // The paper's point: encoding parameters vary over the sequence and
  // belong in element descriptors.
  AudioBuffer audio = audiogen::Sine(44100, 1, 220.0, 0.9, 0.5);
  auto blocks = AdpcmEncode(audio, 512);
  ASSERT_TRUE(blocks.ok());
  ASSERT_GT(blocks->size(), 3u);
  bool varies = false;
  for (size_t i = 1; i < blocks->size(); ++i) {
    if ((*blocks)[i].predictor[0] != (*blocks)[0].predictor[0] ||
        (*blocks)[i].step_index[0] != (*blocks)[0].step_index[0]) {
      varies = true;
    }
  }
  EXPECT_TRUE(varies);
}

TEST(AdpcmTest, BlocksDecodeIndependently) {
  AudioBuffer audio = audiogen::Sine(44100, 1, 330.0, 0.5, 0.2);
  auto blocks = AdpcmEncode(audio, 1000);
  ASSERT_TRUE(blocks.ok());
  // Decode only block 3; compare against the matching span of a full
  // decode (identical because block state is self-contained).
  auto full = AdpcmDecode(*blocks, 44100, 1);
  ASSERT_TRUE(full.ok());
  auto one = AdpcmDecodeBlock((*blocks)[3], 44100, 1);
  ASSERT_TRUE(one.ok());
  for (int64_t i = 0; i < one->FrameCount(); ++i) {
    EXPECT_EQ(one->samples[i], full->samples[3000 + i]);
  }
}

TEST(AdpcmTest, CorruptBlockRejected) {
  AudioBuffer audio = audiogen::Sine(8000, 1, 200.0, 0.5, 0.1);
  auto blocks = AdpcmEncode(audio, 256);
  ASSERT_TRUE(blocks.ok());
  AdpcmBlock bad = (*blocks)[0];
  bad.step_index[0] = 200;  // Out of table range.
  EXPECT_TRUE(AdpcmDecodeBlock(bad, 8000, 1).status().IsCorruption());
  bad = (*blocks)[0];
  bad.data = bad.data.Slice(0, bad.data.size() - 1);
  EXPECT_TRUE(AdpcmDecodeBlock(bad, 8000, 1).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// DCT

TEST(DctTest, ForwardInverseIsIdentity) {
  float block[64], coeffs[64], back[64];
  for (int i = 0; i < 64; ++i) block[i] = static_cast<float>((i * 37) % 255) - 128;
  ForwardDct8x8(block, coeffs);
  InverseDct8x8(coeffs, back, DctMask::All());
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(back[i], block[i], 0.01) << "coefficient " << i;
  }
}

// The DCT basis as dct.cc builds it: b[u][x] = c(u) * cos((2x+1)uπ/16).
void ReferenceBasis(float b[8][8]) {
  for (int u = 0; u < 8; ++u) {
    float c = (u == 0) ? std::sqrt(1.0f / 8.0f) : std::sqrt(2.0f / 8.0f);
    for (int x = 0; x < 8; ++x) {
      b[u][x] = c * std::cos((2.0f * x + 1.0f) * u *
                             static_cast<float>(M_PI) / 16.0f);
    }
  }
}

// Plain scalar forward DCT: the same basis and the same per-output
// summation order (ascending index, starting from +0) as ForwardDct8x8.
void ScalarForwardDct(const float in[64], float out[64]) {
  float b[8][8];
  ReferenceBasis(b);
  float tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0.0f;
      for (int x = 0; x < 8; ++x) acc = acc + in[y * 8 + x] * b[u][x];
      tmp[y * 8 + u] = acc;
    }
  }
  for (int v = 0; v < 8; ++v) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0.0f;
      for (int y = 0; y < 8; ++y) acc = acc + tmp[y * 8 + u] * b[v][y];
      out[v * 8 + u] = acc;
    }
  }
}

// The kernels ForwardDct8x8 can run on this build and CPU: the
// four-lane one, and the eight-lane AVX2 one when it is picked.
std::vector<dct_internal::ForwardDctFn> ForwardKernels() {
  std::vector<dct_internal::ForwardDctFn> kernels = {
      dct_internal::ForwardDct8x8FourLane};
  if (dct_internal::ActiveForwardDct() != kernels[0]) {
    kernels.push_back(dct_internal::ActiveForwardDct());
  }
  return kernels;
}

void ExpectForwardMatchesScalar(const float in[64], const std::string& what) {
  float scalar_out[64];
  ScalarForwardDct(in, scalar_out);
  const std::vector<dct_internal::ForwardDctFn> kernels = ForwardKernels();
  for (size_t k = 0; k < kernels.size(); ++k) {
    float vector_out[64];
    kernels[k](in, vector_out);
    for (int i = 0; i < 64; ++i) {
      uint32_t vector_bits, scalar_bits;
      std::memcpy(&vector_bits, &vector_out[i], 4);
      std::memcpy(&scalar_bits, &scalar_out[i], 4);
      ASSERT_EQ(vector_bits, scalar_bits)
          << what << " kernel " << k << " output " << i;
    }
  }
}

TEST(DctTest, ForwardMatchesScalarReference) {
  std::mt19937 rng(26);
  auto random_blocks = [&](int lo, int hi, const std::string& what) {
    std::uniform_int_distribution<int> sample(lo, hi);
    for (int trial = 0; trial < 2000; ++trial) {
      float in[64];
      for (float& v : in) v = static_cast<float>(sample(rng));
      ExpectForwardMatchesScalar(in, what + " " + std::to_string(trial));
    }
  };
  random_blocks(-128, 127, "level-shifted pixels");
  random_blocks(-255, 255, "TMPEG residual");
  for (float value : {0.0f, -0.0f, 1.0f, -128.0f, 127.0f, 255.0f, -255.0f}) {
    float in[64];
    std::fill(std::begin(in), std::end(in), value);
    ExpectForwardMatchesScalar(in, "constant " + std::to_string(value));
  }
  // In place: `out` aliases `in`.
  for (dct_internal::ForwardDctFn forward : ForwardKernels()) {
    float block[64], expected[64];
    for (int i = 0; i < 64; ++i) {
      block[i] = static_cast<float>((i * 53) % 256 - 128);
    }
    ScalarForwardDct(block, expected);
    forward(block, block);
    EXPECT_EQ(std::memcmp(block, expected, sizeof(block)), 0);
  }
#if defined(TBM_SIMD_AVX2)
  // Only a build with the AVX2 kernel can leave it unchecked.
  if (ForwardKernels().size() == 1) {
    GTEST_SKIP() << "the CPU lacks AVX2: only the four-lane kernel was "
                    "checked";
  }
#endif
}

// Plain scalar dense inverse DCT: the same basis and the same
// per-output summation order (ascending index, starting from +0) as
// InverseDct8x8, with no term skipped.
void DenseInverseDct(const float in[64], float out[64]) {
  float b[8][8];
  ReferenceBasis(b);
  float tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0.0f;
      for (int v = 0; v < 8; ++v) acc = acc + in[v * 8 + u] * b[v][y];
      tmp[y * 8 + u] = acc;
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      float acc = 0.0f;
      for (int u = 0; u < 8; ++u) acc = acc + tmp[y * 8 + u] * b[u][x];
      out[y * 8 + x] = acc;
    }
  }
}

// The kernels InverseDct8x8 can run on this build and CPU: the
// four-lane one, and the eight-lane AVX2 one when it is picked.
std::vector<dct_internal::InverseDctFn> InverseKernels() {
  std::vector<dct_internal::InverseDctFn> kernels = {
      dct_internal::InverseDct8x8FourLane};
  if (dct_internal::ActiveInverseDct() != kernels[0]) {
    kernels.push_back(dct_internal::ActiveInverseDct());
  }
  return kernels;
}

// The exact mask of a block: every nonzero input.
DctMask MaskOf(const float in[64]) {
  DctMask mask;
  for (int i = 0; i < 64; ++i) {
    if (in[i] != 0.0f) mask.Set(i);
  }
  return mask;
}

// Runs every masked IDCT kernel (mask from the nonzero inputs, as
// TJPEG's decoder builds it) and the int16 store, and compares both
// with the dense reference followed by std::lround.
void ExpectMaskedMatchesDense(const float in[64], const std::string& what) {
  const DctMask mask = MaskOf(in);
  float dense[64];
  DenseInverseDct(in, dense);
  const std::vector<dct_internal::InverseDctFn> kernels = InverseKernels();
  for (size_t k = 0; k < kernels.size(); ++k) {
    float masked[64];
    kernels[k](in, masked, mask);
    int16_t stored[64];
    for (int y = 0; y < 8; ++y) {
      simd::ClampRoundStoreI16x8(&masked[y * 8], &stored[y * 8]);
    }
    for (int i = 0; i < 64; ++i) {
      uint32_t masked_bits, dense_bits;
      std::memcpy(&masked_bits, &masked[i], 4);
      std::memcpy(&dense_bits, &dense[i], 4);
      ASSERT_EQ(masked_bits, dense_bits)
          << what << " kernel " << k << " output " << i;
      ASSERT_EQ(stored[i], static_cast<int16_t>(std::lround(
                               std::clamp(dense[i], -32768.0f, 32767.0f))))
          << what << " kernel " << k << " output " << i;
    }
  }
}

// The dispatched IDCT against the four-lane kernel, bit for bit, on a
// block with the mask it is given.
void ExpectInverseMatchesFourLane(const float in[64], const DctMask& mask,
                                  const std::string& what) {
  float four_lane[64], dispatched[64];
  dct_internal::InverseDct8x8FourLane(in, four_lane, mask);
  InverseDct8x8(in, dispatched, mask);
  ASSERT_EQ(std::memcmp(four_lane, dispatched, sizeof(four_lane)), 0)
      << what;
}

TEST(DctTest, MaskedInverseMatchesDenseReference) {
  for (int index = 0; index < 64; ++index) {
    for (float value : {1.0f, -37.0f, 1016.0f}) {
      float in[64] = {};
      in[index] = value;
      ExpectMaskedMatchesDense(in, "single " + std::to_string(index));
    }
  }
  // Seeded random sparse blocks: quantized values times quant steps,
  // as TJPEG's decoder feeds them.
  std::mt19937 rng(20);
  for (int trial = 0; trial < 2000; ++trial) {
    float in[64] = {};
    const int terms = 1 + static_cast<int>(rng() % 12);
    for (int t = 0; t < terms; ++t) {
      int q = static_cast<int>(rng() % 401) - 200;
      in[rng() % 64] = static_cast<float>(q) * static_cast<float>(
                                                  1 + rng() % 255);
    }
    ExpectMaskedMatchesDense(in, "random " + std::to_string(trial));
  }
  // -0.0 compares equal to zero, so the mask skips it: the dense sums
  // never become -0 and the skipped products change nothing.
  for (int index = 0; index < 64; ++index) {
    float in[64] = {};
    for (int i = 0; i < 64; i += 3) in[i] = -0.0f;
    in[index] = -0.0f;
    ExpectMaskedMatchesDense(in, "negative zero " + std::to_string(index));
    in[(index * 7) % 64] = 12.0f;
    ExpectMaskedMatchesDense(in, "negative zero + term " +
                                     std::to_string(index));
  }
}

// The eight-lane IDCT sums every row the mask sets in either half, the
// four-lane one only its own half's rows; the extra products are ±0
// and must change no bit. Blocks: seeded sparse ones with their exact
// masks (half of them confined to one half of the columns, so the
// other half is empty), DC plus each single AC, the full mask, and the
// dequantized coefficients of every block of a 160×120 4:2:0 frame.
TEST(DctTest, InverseDispatchedMatchesFourLane) {
  std::mt19937 rng(31);
  for (int trial = 0; trial < 10000; ++trial) {
    float in[64] = {};
    const int terms = 1 + static_cast<int>(rng() % 12);
    // 0: any column; 1: columns 0-3 only; 2: columns 4-7 only.
    const int half = trial % 3;
    for (int t = 0; t < terms; ++t) {
      int index = static_cast<int>(rng() % 64);
      if (half != 0) index = (index & ~4) | (half == 2 ? 4 : 0);
      const int q = static_cast<int>(rng() % 401) - 200;
      in[index] = static_cast<float>(q) * static_cast<float>(1 + rng() % 255);
    }
    ExpectInverseMatchesFourLane(in, MaskOf(in),
                                 "random " + std::to_string(trial));
  }
  for (int index = 1; index < 64; ++index) {
    float in[64] = {};
    in[0] = 88.0f;
    in[index] = -35.0f;
    ExpectInverseMatchesFourLane(in, MaskOf(in),
                                 "DC + AC " + std::to_string(index));
  }
  float dense[64];
  for (int i = 0; i < 64; ++i) {
    dense[i] = static_cast<float>((i * 29) % 97 - 48);
  }
  ExpectInverseMatchesFourLane(dense, DctMask::All(), "all");

  // A decoded frame's blocks: each plane level-shifted, transformed,
  // quantized at quality 50 and dequantized as TJPEG's decoder does.
  auto yuv = RgbToYuv(videogen::Frame(160, 120, 0, 77), ColorModel::kYuv420);
  ASSERT_TRUE(yuv.ok());
  struct Plane {
    int32_t w, h;
    size_t offset;
    const std::array<uint16_t, 64>& base;
  };
  const Plane planes[3] = {{160, 120, 0, kLumaQuantBase},
                           {80, 60, 160 * 120, kChromaQuantBase},
                           {80, 60, 160 * 120 + 80 * 60, kChromaQuantBase}};
  int blocks = 0;
  for (const Plane& plane : planes) {
    const std::array<uint16_t, 64> quant = ScaleQuantTable(plane.base, 50);
    const uint8_t* pixels = yuv->data.data() + plane.offset;
    for (int32_t by = 0; by < plane.h; by += 8) {
      for (int32_t bx = 0; bx < plane.w; bx += 8) {
        float block[64], coeffs[64];
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            const int32_t sy = std::min(by + y, plane.h - 1);
            const int32_t sx = std::min(bx + x, plane.w - 1);
            block[y * 8 + x] =
                static_cast<float>(pixels[sy * plane.w + sx]) - 128.0f;
          }
        }
        ForwardDct8x8(block, coeffs);
        for (int i = 0; i < 64; ++i) {
          const float q = static_cast<float>(quant[i]);
          coeffs[i] = std::nearbyintf(coeffs[i] / q) * q;
        }
        // The decoder marks the DC even when it is zero.
        DctMask mask = MaskOf(coeffs);
        mask.Set(0);
        ExpectInverseMatchesFourLane(coeffs, mask,
                                     "frame block " + std::to_string(blocks));
        ++blocks;
      }
    }
  }
  EXPECT_EQ(blocks, 300 + 2 * 80);
#if defined(TBM_SIMD_AVX2)
  // Only a build with the AVX2 kernel can leave it unchecked.
  if (InverseKernels().size() == 1) {
    GTEST_SKIP() << "the CPU lacks AVX2: only the four-lane kernel was "
                    "checked";
  }
#endif
}

TEST(DctTest, ClampRoundStoreMatchesLround) {
  auto expect_lround = [](const float in[8]) {
    int16_t out[8];
    simd::ClampRoundStoreI16x8(in, out);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], static_cast<int16_t>(std::lround(
                            std::clamp(in[i], -32768.0f, 32767.0f))))
          << "input " << in[i];
    }
  };
  std::vector<float> cases = {0.0f, -0.0f, 0.49999997f, -0.49999997f,
                              0.5f, -0.5f, 0.50000006f, -0.50000006f,
                              32767.0f, 32767.5f, 32768.0f, -32768.0f,
                              -32768.5f, -32769.0f, 1e9f, -1e9f,
                              8388608.0f, -8388609.0f};
  for (int k = 0; k <= 40; ++k) {
    cases.push_back(k + 0.5f);
    cases.push_back(-(k + 0.5f));
  }
  for (float k : {127.5f, 255.5f, 1023.5f, 32766.5f, -32767.5f}) {
    cases.push_back(k);
  }
  std::mt19937 rng(21);
  std::uniform_real_distribution<float> wide(-40000.0f, 40000.0f);
  std::uniform_real_distribution<float> narrow(-4.0f, 4.0f);
  for (int i = 0; i < 4000; ++i) {
    cases.push_back(wide(rng));
    cases.push_back(narrow(rng));
  }
  while (cases.size() % 8 != 0) cases.push_back(0.0f);
  for (size_t i = 0; i < cases.size(); i += 8) expect_lround(&cases[i]);
}

TEST(DctTest, FlatBlockHasOnlyDc) {
  float block[64], coeffs[64];
  for (int i = 0; i < 64; ++i) block[i] = 100.0f;
  ForwardDct8x8(block, coeffs);
  EXPECT_NEAR(coeffs[0], 800.0f, 0.01);  // 100 * 8 (orthonormal scale).
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeffs[i], 0.0f, 0.01);
}

TEST(DctTest, QuantTableScaling) {
  auto base = ScaleQuantTable(kLumaQuantBase, 50);
  EXPECT_EQ(base, kLumaQuantBase);  // Quality 50 = identity.
  auto fine = ScaleQuantTable(kLumaQuantBase, 95);
  auto coarse = ScaleQuantTable(kLumaQuantBase, 10);
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(fine[i], base[i]);
    EXPECT_GE(coarse[i], base[i]);
    EXPECT_GE(fine[i], 1);
    EXPECT_LE(coarse[i], 255);
  }
}

TEST(DctTest, ZigzagIsAPermutation) {
  std::array<bool, 64> seen{};
  for (uint8_t index : kZigzag) {
    EXPECT_LT(index, 64);
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
  }
  EXPECT_EQ(kZigzag[0], 0);   // DC first.
  EXPECT_EQ(kZigzag[1], 1);   // Then the first AC.
  EXPECT_EQ(kZigzag[63], 63); // Highest frequency last.
}

// ---------------------------------------------------------------------------
// TJPEG

class TjpegQuality : public ::testing::TestWithParam<int> {};

TEST_P(TjpegQuality, RoundTripAtQuality) {
  Image rgb = videogen::Still(96, 64, 11);
  auto encoded = TjpegEncode(rgb, GetParam());
  ASSERT_TRUE(encoded.ok());
  auto decoded = TjpegDecode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, rgb.width);
  EXPECT_EQ(decoded->height, rgb.height);
  double psnr = *Psnr(rgb, *decoded);
  // Even the worst quality should beat 18 dB on synthetic scenes; high
  // quality should beat 32 dB.
  EXPECT_GT(psnr, GetParam() >= 75 ? 32.0 : 18.0) << "quality " << GetParam();
  // Real compression happens at every quality.
  EXPECT_LT(encoded->size(), rgb.data.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, TjpegQuality,
                         ::testing::Values(5, 25, 50, 75, 95));

TEST(TjpegTest, QualityTradesRateForFidelity) {
  Image rgb = videogen::Still(128, 96, 13);
  size_t prev_size = 0;
  double prev_psnr = 0.0;
  for (int quality : {10, 50, 90}) {
    auto encoded = TjpegEncode(rgb, quality);
    ASSERT_TRUE(encoded.ok());
    auto decoded = TjpegDecode(*encoded);
    ASSERT_TRUE(decoded.ok());
    double psnr = *Psnr(rgb, *decoded);
    EXPECT_GT(encoded->size(), prev_size);
    EXPECT_GT(psnr, prev_psnr);
    prev_size = encoded->size();
    prev_psnr = psnr;
  }
}

TEST(TjpegTest, GrayscaleSupported) {
  Image rgb = videogen::Still(64, 64, 2);
  auto gray = RgbToGray(rgb);
  ASSERT_TRUE(gray.ok());
  auto encoded = TjpegEncode(*gray, 70);
  ASSERT_TRUE(encoded.ok());
  auto decoded = TjpegDecode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->model, ColorModel::kGray8);
  EXPECT_GT(*Psnr(*gray, *decoded), 25.0);
}

TEST(TjpegTest, NonMultipleOf8Dimensions) {
  Image rgb = videogen::Still(33, 21, 4);
  auto encoded = TjpegEncode(rgb, 60);
  ASSERT_TRUE(encoded.ok());
  auto decoded = TjpegDecode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, 33);
  EXPECT_EQ(decoded->height, 21);
  EXPECT_GT(*Psnr(rgb, *decoded), 18.0);
}

TEST(TjpegTest, RejectsGarbage) {
  Bytes garbage = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_TRUE(TjpegDecode(garbage).status().IsCorruption());
  EXPECT_TRUE(TjpegDecode(Bytes{}).status().IsCorruption());
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(TjpegEncode(rgb, 0).status().IsInvalidArgument());
  EXPECT_TRUE(TjpegEncode(rgb, 101).status().IsInvalidArgument());
}

TEST(TjpegTest, TruncatedPayloadIsCorruption) {
  Image rgb = videogen::Still(32, 32, 9);
  auto encoded = TjpegEncode(rgb, 50);
  ASSERT_TRUE(encoded.ok());
  Bytes truncated(encoded->begin(), encoded->begin() + encoded->size() / 2);
  EXPECT_FALSE(TjpegDecode(truncated).ok());
}

// `encoded` cut after its header, which ends at `header_end`, with the
// one-byte width and height varints at `at` replaced by `side`.
Bytes ClaimSquareGeometry(ByteSpan encoded, size_t at, size_t header_end,
                          uint64_t side) {
  BinaryWriter writer;
  writer.WriteRaw(encoded.first(at));
  writer.WriteVarU64(side);
  writer.WriteVarU64(side);
  writer.WriteRaw(encoded.subspan(at + 2, header_end - at - 2));
  return writer.TakeBuffer();
}

// Every 8×8 block codes in at least two bytes, so a header that claims
// more blocks than the payload can hold fails before the decoder
// allocates planes for them (20000² would zero-fill ~1.2 GB; 2^20²
// would ask for terabytes).
TEST(TjpegTest, HostileGeometryFailsBeforeAllocating) {
  for (ColorModel model : {ColorModel::kRgb24, ColorModel::kGray8}) {
    auto valid = TjpegEncode(Image::Zero(8, 8, model), 50);
    ASSERT_TRUE(valid.ok());
    ASSERT_TRUE(TjpegDecode(*valid).ok());
    // Header: magic, gray flag, model and quality (7 bytes), then the
    // width and height varints.
    for (uint64_t side : {uint64_t{20000}, uint64_t{1} << 20}) {
      Bytes hostile = ClaimSquareGeometry(*valid, 7, 9, side);
      EXPECT_TRUE(TjpegDecode(hostile).status().IsCorruption())
          << ColorModelToString(model) << " " << side;
    }
  }
}

// A zero run too long for the block is Corruption, however large: a
// run that wraps when narrowed to int must not move the coefficient
// index backwards.
TEST(TjpegTest, HugeAcRunIsCorruption) {
  auto valid = TjpegEncode(Image::Zero(8, 8, ColorModel::kGray8), 50);
  ASSERT_TRUE(valid.ok());
  for (uint64_t run : {uint64_t{63}, uint64_t{0xFFFFFFFB}, ~uint64_t{0}}) {
    BinaryWriter writer;
    writer.WriteRaw(ByteSpan(*valid).first(9));  // Header through height.
    writer.WriteVarI64(0);                       // DC delta.
    writer.WriteVarU64(run);
    writer.WriteVarI64(1);
    writer.WriteVarU64(64);  // End of block.
    EXPECT_TRUE(TjpegDecode(writer.buffer()).status().IsCorruption()) << run;
  }
}

// A DC far outside the 8-bit range saturates the int16 plane at 32767;
// the level unshift must clamp it to 255 on the vector paths too, not
// wrap it to 0.
TEST(TjpegTest, SaturatedPlaneUnshiftsToWhite) {
  auto valid = TjpegEncode(Image::Zero(8, 8, ColorModel::kGray8), 50);
  ASSERT_TRUE(valid.ok());
  BinaryWriter writer;
  writer.WriteRaw(ByteSpan(*valid).first(9));  // Header through height.
  writer.WriteVarI64(100000);                  // DC delta.
  writer.WriteVarU64(64);                      // End of block.
  auto decoded = TjpegDecode(writer.buffer());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->data.size(), 64u);
  for (size_t i = 0; i < decoded->data.size(); ++i) {
    EXPECT_EQ(decoded->data[i], 255) << i;
  }
}

// ---------------------------------------------------------------------------
// RLE

class RleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RleRoundTrip, Identity) {
  // Mix of runs and literals seeded by the parameter.
  Bytes data;
  uint32_t state = static_cast<uint32_t>(GetParam()) * 2654435761u + 1;
  for (int i = 0; i < 5000; ++i) {
    state = state * 1664525u + 1013904223u;
    if ((state >> 28) < 6) {
      // Insert a run.
      uint8_t value = static_cast<uint8_t>(state);
      size_t length = (state >> 8) % 300 + 1;
      data.insert(data.end(), length, value);
    } else {
      data.push_back(static_cast<uint8_t>(state >> 16));
    }
  }
  Bytes encoded = RleEncode(data);
  auto decoded = RleDecode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleRoundTrip, ::testing::Range(1, 9));

TEST(RleTest, CompressesRuns) {
  Bytes runs(10000, 0xAA);
  Bytes encoded = RleEncode(runs);
  EXPECT_LT(encoded.size(), runs.size() / 20);
  EXPECT_EQ(*RleDecode(encoded), runs);
}

TEST(RleTest, EmptyAndTruncated) {
  EXPECT_TRUE(RleEncode(Bytes{}).empty());
  EXPECT_TRUE(RleDecode(Bytes{})->empty());
  Bytes truncated = {static_cast<uint8_t>(10)};  // Claims 11 literals.
  EXPECT_TRUE(RleDecode(truncated).status().IsCorruption());
  Bytes truncated_run = {static_cast<uint8_t>(200)};  // Run without value.
  EXPECT_TRUE(RleDecode(truncated_run).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// TMPEG

std::vector<Image> SmallClip(int64_t frames, uint32_t scene = 21) {
  return videogen::Clip(64, 48, frames, scene);
}

TEST(TmpegTest, ForwardDeltaRoundTrip) {
  std::vector<Image> clip = SmallClip(12);
  TmpegConfig config;
  config.quality = 60;
  config.key_interval = 4;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->size(), clip.size());
  // Storage order equals presentation order in forward mode.
  for (size_t i = 0; i < encoded->size(); ++i) {
    EXPECT_EQ((*encoded)[i].presentation_index, static_cast<int64_t>(i));
  }
  auto decoded = TmpegDecodeSequence(*encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), clip.size());
  for (size_t i = 0; i < clip.size(); ++i) {
    EXPECT_GT(*Psnr(clip[i], (*decoded)[i]), 22.0) << "frame " << i;
  }
}

TEST(TmpegTest, KeyFramesAtInterval) {
  std::vector<Image> clip = SmallClip(10);
  TmpegConfig config;
  config.key_interval = 4;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  for (size_t i = 0; i < encoded->size(); ++i) {
    FrameKind expected =
        (i % 4 == 0) ? FrameKind::kKey : FrameKind::kDelta;
    EXPECT_EQ((*encoded)[i].kind, expected) << "frame " << i;
  }
}

TEST(TmpegTest, DeltaFramesAreSmallerThanKeys) {
  std::vector<Image> clip = SmallClip(12);
  TmpegConfig config;
  config.key_interval = 6;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  uint64_t key_bytes = 0, key_count = 0, delta_bytes = 0, delta_count = 0;
  for (const TmpegFrame& frame : *encoded) {
    if (frame.kind == FrameKind::kKey) {
      key_bytes += frame.data.size();
      ++key_count;
    } else {
      delta_bytes += frame.data.size();
      ++delta_count;
    }
  }
  ASSERT_GT(key_count, 0u);
  ASSERT_GT(delta_count, 0u);
  EXPECT_LT(delta_bytes / delta_count, key_bytes / key_count);
}

TEST(TmpegTest, BidirectionalStorageOrderIsOutOfOrder) {
  // The paper's example: four elements, first and last keys, stored
  // 1,4,2,3.
  std::vector<Image> clip = SmallClip(4);
  TmpegConfig config;
  config.key_interval = 3;
  config.bidirectional = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  std::vector<int64_t> storage_order;
  for (const TmpegFrame& frame : *encoded) {
    storage_order.push_back(frame.presentation_index);
  }
  EXPECT_EQ(storage_order, (std::vector<int64_t>{0, 3, 1, 2}));
  EXPECT_EQ((*encoded)[0].kind, FrameKind::kKey);
  EXPECT_EQ((*encoded)[1].kind, FrameKind::kKey);
  EXPECT_EQ((*encoded)[2].kind, FrameKind::kBidirectional);
  EXPECT_EQ((*encoded)[2].ref_before, 0);
  EXPECT_EQ((*encoded)[2].ref_after, 3);
}

TEST(TmpegTest, BidirectionalRoundTrip) {
  std::vector<Image> clip = SmallClip(13, 33);
  TmpegConfig config;
  config.quality = 60;
  config.key_interval = 6;
  config.bidirectional = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  auto decoded = TmpegDecodeSequence(*encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), clip.size());
  for (size_t i = 0; i < clip.size(); ++i) {
    EXPECT_GT(*Psnr(clip[i], (*decoded)[i]), 20.0) << "frame " << i;
  }
}

TEST(TmpegTest, InterframeBeatsIntraframeOnCoherentVideo) {
  std::vector<Image> clip = SmallClip(24, 44);
  TmpegConfig inter;
  inter.quality = 50;
  inter.key_interval = 12;
  auto encoded = TmpegEncodeSequence(clip, inter);
  ASSERT_TRUE(encoded.ok());
  uint64_t inter_bytes = 0;
  for (const TmpegFrame& frame : *encoded) inter_bytes += frame.data.size();
  uint64_t intra_bytes = 0;
  for (const Image& frame : clip) {
    auto tjpeg = TjpegEncode(frame, 50);
    ASSERT_TRUE(tjpeg.ok());
    intra_bytes += tjpeg->size();
  }
  EXPECT_LT(inter_bytes, intra_bytes);
}

TEST(TmpegTest, DeltaBeforeKeyIsFailedPrecondition) {
  std::vector<Image> clip = SmallClip(6);
  TmpegConfig config;
  config.key_interval = 3;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  // Drop the first key: its deltas cannot decode.
  std::vector<TmpegFrame> broken(encoded->begin() + 1, encoded->end());
  EXPECT_TRUE(TmpegDecodeSequence(broken).status().IsFailedPrecondition());
}

TEST(TmpegTest, KeysOnlyDecodeIsScalableRead) {
  std::vector<Image> clip = SmallClip(12, 55);
  TmpegConfig config;
  config.key_interval = 4;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  auto keys = TmpegDecodeKeysOnly(*encoded);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 3u);  // Frames 0, 4, 8.
  EXPECT_EQ((*keys)[0].first, 0);
  EXPECT_EQ((*keys)[1].first, 4);
  EXPECT_EQ((*keys)[2].first, 8);
  EXPECT_GT(*Psnr(clip[4], (*keys)[1].second), 22.0);
}

TEST(TmpegTest, ParseFrameRecoversMetadata) {
  std::vector<Image> clip = SmallClip(4);
  TmpegConfig config;
  config.key_interval = 2;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  for (const TmpegFrame& frame : *encoded) {
    auto parsed = TmpegParseFrame(frame.data);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind, frame.kind);
    EXPECT_EQ(parsed->presentation_index, frame.presentation_index);
  }
}

TEST(TmpegTest, HostileGeometryFailsBeforeAllocating) {
  auto encoded = TmpegEncodeSequence(SmallClip(1), TmpegConfig{});
  ASSERT_TRUE(encoded.ok());
  const BufferSlice& key = (*encoded)[0].data;
  // Header: magic, kind and quality (6 bytes), the 64×48 geometry, then
  // presentation, both references and the motion flag (4 bytes).
  for (uint64_t side : {uint64_t{20000}, uint64_t{1} << 20}) {
    TmpegFrame frame;
    frame.data = ClaimSquareGeometry(key.span(), 6, 12, side);
    EXPECT_TRUE(TmpegParseFrame(frame.data).status().IsCorruption()) << side;
    EXPECT_TRUE(TmpegDecodeSequence({frame}).status().IsCorruption()) << side;
    EXPECT_TRUE(TmpegDecodeKeysOnly({frame}).status().IsCorruption()) << side;
  }
}

// A predicted frame is decoded over its reference's samples, so a
// frame that claims another geometry than its reference must fail
// instead of reading past the reference planes.
TEST(TmpegTest, ReferenceGeometryMismatchIsCorruption) {
  for (bool bidirectional : {false, true}) {
    TmpegConfig config;
    config.key_interval = 2;
    config.bidirectional = bidirectional;
    auto small = TmpegEncodeSequence(videogen::Clip(16, 16, 3, 1), config);
    auto large = TmpegEncodeSequence(videogen::Clip(64, 64, 3, 1), config);
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(large.ok());
    // Storage order: forward is 0 (key), 1 (delta), 2 (key); bidirectional
    // is 0, 2 (keys), 1. Swap in the large clip's predicted frame.
    std::vector<TmpegFrame> mixed = *small;
    const size_t predicted = bidirectional ? 2 : 1;
    mixed[predicted] = (*large)[predicted];
    EXPECT_TRUE(TmpegDecodeSequence(mixed).status().IsCorruption())
        << (bidirectional ? "bidirectional" : "forward");
  }
}

TEST(TmpegTest, InvalidInputsRejected) {
  EXPECT_TRUE(TmpegEncodeSequence({}, TmpegConfig{})
                  .status()
                  .IsInvalidArgument());
  std::vector<Image> mixed = {videogen::Still(32, 32, 1),
                              videogen::Still(64, 64, 1)};
  EXPECT_TRUE(
      TmpegEncodeSequence(mixed, TmpegConfig{}).status().IsInvalidArgument());
}

// A translating scene: the whole frame shifts right 2 px per frame —
// ideal for motion compensation.
std::vector<Image> PanningClip(int64_t frames) {
  Image wide = videogen::Still(160, 64, 66);
  // Texture the scene: without high-frequency content, a plain delta of
  // a smooth gradient is nearly as cheap as a motion-compensated one.
  Bytes textured = wide.data.MutableCopy();
  for (int32_t y = 0; y < wide.height; ++y) {
    for (int32_t x = 0; x < wide.width; ++x) {
      uint32_t h = static_cast<uint32_t>(x) * 374761393u +
                   static_cast<uint32_t>(y) * 668265263u;
      h = (h ^ (h >> 13)) * 1274126177;
      int noise = static_cast<int>(h % 97) - 48;
      for (int c = 0; c < 3; ++c) {
        int v = textured[3 * (y * wide.width + x) + c] + noise;
        textured[3 * (y * wide.width + x) + c] =
            static_cast<uint8_t>(std::clamp(v, 0, 255));
      }
    }
  }
  wide.data = std::move(textured);
  std::vector<Image> out;
  for (int64_t f = 0; f < frames; ++f) {
    Image frame = Image::Zero(96, 64, ColorModel::kRgb24);
    Bytes pixels(frame.data.size(), 0);
    for (int32_t y = 0; y < 64; ++y) {
      for (int32_t x = 0; x < 96; ++x) {
        int32_t sx = std::min<int32_t>(x + 2 * static_cast<int32_t>(f), 159);
        for (int c = 0; c < 3; ++c) {
          pixels[3 * (y * 96 + x) + c] = wide.data[3 * (y * 160 + sx) + c];
        }
      }
    }
    frame.data = std::move(pixels);
    out.push_back(std::move(frame));
  }
  return out;
}

TEST(TmpegTest, MotionCompensationRoundTrip) {
  std::vector<Image> clip = PanningClip(8);
  TmpegConfig config;
  config.quality = 60;
  config.key_interval = 8;
  config.motion_compensation = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = TmpegDecodeSequence(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), clip.size());
  for (size_t i = 0; i < clip.size(); ++i) {
    EXPECT_GT(*Psnr(clip[i], (*decoded)[i]), 22.0) << "frame " << i;
  }
}

TEST(TmpegTest, MotionCompensationShrinksPanningDeltas) {
  std::vector<Image> clip = PanningClip(8);
  TmpegConfig plain;
  plain.quality = 60;
  plain.key_interval = 8;
  TmpegConfig mc = plain;
  mc.motion_compensation = true;
  auto without = TmpegEncodeSequence(clip, plain);
  auto with = TmpegEncodeSequence(clip, mc);
  ASSERT_TRUE(without.ok() && with.ok());
  auto delta_bytes = [](const std::vector<TmpegFrame>& frames) {
    uint64_t total = 0;
    for (const TmpegFrame& frame : frames) {
      if (frame.kind == FrameKind::kDelta) total += frame.data.size();
    }
    return total;
  };
  // On a pure 2 px/frame pan, ±4 px full search should cut the residual
  // substantially (motion vectors cost 2 bytes per 16x16 block).
  EXPECT_LT(delta_bytes(*with), delta_bytes(*without) * 7 / 10);
}

TEST(TmpegTest, MotionCompensatedStreamThroughParseFrame) {
  std::vector<Image> clip = PanningClip(4);
  TmpegConfig config;
  config.key_interval = 4;
  config.motion_compensation = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  // Parsing and re-decoding from parsed frames works (the codec-bridge
  // path).
  std::vector<TmpegFrame> parsed;
  for (const TmpegFrame& frame : *encoded) {
    auto p = TmpegParseFrame(frame.data);
    ASSERT_TRUE(p.ok());
    parsed.push_back(std::move(*p));
  }
  auto decoded = TmpegDecodeSequence(parsed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 4u);
}

// ---------------------------------------------------------------------------
// Synthetic generator

TEST(SyntheticTest, DeterministicPerScene) {
  Image a = videogen::Frame(32, 32, 5, 7);
  Image b = videogen::Frame(32, 32, 5, 7);
  EXPECT_EQ(a.data, b.data);
  Image other_scene = videogen::Frame(32, 32, 5, 8);
  EXPECT_NE(a.data, other_scene.data);
  Image other_frame = videogen::Frame(32, 32, 6, 7);
  EXPECT_NE(a.data, other_frame.data);
}

TEST(SyntheticTest, TemporalCoherence) {
  // Consecutive frames should differ by much less than distant ones —
  // this is what makes interframe coding effective.
  Image f0 = videogen::Frame(64, 48, 0, 12);
  Image f1 = videogen::Frame(64, 48, 1, 12);
  Image f50 = videogen::Frame(64, 48, 50, 12);
  EXPECT_GT(*Psnr(f0, f1), *Psnr(f0, f50));
}

}  // namespace
}  // namespace tbm
