// Substrate ablation: the codec family. The data model cares about
// stream *shape* (element sizes, key/delta structure, descriptors);
// this bench quantifies the codecs behind those shapes: intraframe
// TJPEG vs interframe TMPEG (forward / bidirectional / motion-
// compensated) on coherent video, and PCM vs ADPCM on audio — rate,
// fidelity and speed for each.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
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

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kW = 160, kH = 120;
constexpr int64_t kFrames = 24;

std::vector<Image> Clip() { return videogen::Clip(kW, kH, kFrames, 77); }

double MeanPsnr(const std::vector<Image>& a, const std::vector<Image>& b) {
  double total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    total += ValueOrDie(Psnr(a[i], b[i]), "psnr");
  }
  return total / a.size();
}

void PrintVideoAblation() {
  bench::Header(
      "Ablation: video codec family at quality 50 on a coherent clip\n"
      "(raw 24-bit RGB baseline; paper §2.1 contrasts intraframe JPEG\n"
      "video with interframe MPEG/DVI)");
  std::vector<Image> clip = Clip();
  uint64_t raw_bytes = static_cast<uint64_t>(kW) * kH * 3 * kFrames;

  std::printf("%-28s %12s %8s %10s\n", "codec", "bytes", "ratio",
              "mean PSNR");
  std::printf("%-28s %12llu %7.1fx %10s\n", "raw RGB",
              (unsigned long long)raw_bytes, 1.0, "inf");

  // Intraframe.
  {
    uint64_t bytes = 0;
    std::vector<Image> decoded;
    for (const Image& frame : clip) {
      Bytes encoded = ValueOrDie(TjpegEncode(frame, 50), "encode");
      bytes += encoded.size();
      decoded.push_back(ValueOrDie(TjpegDecode(encoded), "decode"));
    }
    std::printf("%-28s %12llu %7.1fx %9.1f\n", "TJPEG (intraframe)",
                (unsigned long long)bytes,
                static_cast<double>(raw_bytes) / bytes,
                MeanPsnr(clip, decoded));
  }

  // Interframe variants.
  struct Variant {
    const char* name;
    TmpegConfig config;
  };
  TmpegConfig forward;
  forward.quality = 50;
  forward.key_interval = 12;
  TmpegConfig bidi = forward;
  bidi.bidirectional = true;
  TmpegConfig mc = forward;
  mc.motion_compensation = true;
  for (const Variant& variant :
       {Variant{"TMPEG forward (I/P)", forward},
        Variant{"TMPEG bidirectional", bidi},
        Variant{"TMPEG forward + motion", mc}}) {
    auto encoded = ValueOrDie(TmpegEncodeSequence(clip, variant.config),
                              "encode");
    uint64_t bytes = 0;
    for (const TmpegFrame& frame : encoded) bytes += frame.data.size();
    auto decoded = ValueOrDie(TmpegDecodeSequence(encoded), "decode");
    std::printf("%-28s %12llu %7.1fx %9.1f\n", variant.name,
                (unsigned long long)bytes,
                static_cast<double>(raw_bytes) / bytes,
                MeanPsnr(clip, decoded));
  }
  std::printf(
      "\nShape check: interframe beats intraframe on coherent video; the\n"
      "paper's trade-off is the inverse (intraframe frames reorder and\n"
      "reverse freely; interframe needs key-first storage).\n");

  // Audio.
  bench::Header("Ablation: audio codecs (1 s of 44.1 kHz stereo)");
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.6, 1.0);
  uint64_t pcm_bytes = audio.samples.size() * 2;
  auto blocks = ValueOrDie(AdpcmEncode(audio, 1024), "adpcm");
  uint64_t adpcm_bytes = 0;
  for (const AdpcmBlock& block : blocks) adpcm_bytes += block.data.size();
  auto adpcm_decoded = ValueOrDie(AdpcmDecode(blocks, 44100, 2), "decode");
  std::printf("%-28s %12llu %7.1fx %9s\n", "PCM (uniform stream)",
              (unsigned long long)pcm_bytes, 1.0, "inf");
  std::printf("%-28s %12llu %7.1fx %8.1f dB SNR\n",
              "IMA ADPCM (heterogeneous)",
              (unsigned long long)adpcm_bytes,
              static_cast<double>(pcm_bytes) / adpcm_bytes,
              ValueOrDie(AudioSnr(audio, adpcm_decoded), "snr"));
  Bytes rle = RleEncode(audio.ToBytes());
  std::printf("%-28s %12zu %7.1fx %9s  (PCM is noise-like to RLE)\n",
              "RLE (lossless baseline)", rle.size(),
              static_cast<double>(pcm_bytes) / rle.size(), "inf");
}

// --- Speed benchmarks -------------------------------------------------------

// The forward DCT alone over 300 level-shifted blocks (one 160×120 luma
// plane), kept apart from the encode it dominates.
void BM_ForwardDct8x8(benchmark::State& state) {
  constexpr int kBlocks = (kW / 8) * (kH / 8);
  std::vector<float> blocks(64 * kBlocks);
  uint32_t seed = 77;
  for (float& v : blocks) {
    seed = seed * 1664525u + 1013904223u;
    v = static_cast<float>(static_cast<int>(seed >> 24) - 128);
  }
  std::vector<float> coeffs(blocks.size());
  for (auto _ : state) {
    for (int b = 0; b < kBlocks; ++b) {
      ForwardDct8x8(&blocks[64 * b], &coeffs[64 * b]);
    }
    benchmark::DoNotOptimize(coeffs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_ForwardDct8x8)->Unit(benchmark::kMicrosecond);

// The inverse DCT alone over the blocks a TJPEG decode of the bench
// frame transforms: each 4:2:0 plane's blocks, quantized at quality 50
// and dequantized, with the masks the decoder builds. DC-only blocks
// are left out, as the decoder fills them without a transform.
void BM_InverseDct8x8(benchmark::State& state) {
  const Image yuv = ValueOrDie(
      RgbToYuv(videogen::Frame(kW, kH, 0, 77), ColorModel::kYuv420), "yuv");
  struct Plane {
    int32_t w, h;
    size_t offset;
    const std::array<uint16_t, 64>& base;
  };
  const Plane planes[3] = {
      {kW, kH, 0, kLumaQuantBase},
      {kW / 2, kH / 2, size_t{kW} * kH, kChromaQuantBase},
      {kW / 2, kH / 2, size_t{kW} * kH * 5 / 4, kChromaQuantBase}};
  std::vector<float> blocks;
  std::vector<DctMask> masks;
  for (const Plane& plane : planes) {
    const std::array<uint16_t, 64> quant = ScaleQuantTable(plane.base, 50);
    const uint8_t* pixels = yuv.data.data() + plane.offset;
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
        DctMask mask;
        mask.Set(0);
        bool ac = false;
        for (int i = 0; i < 64; ++i) {
          const float q = static_cast<float>(quant[i]);
          coeffs[i] = std::nearbyintf(coeffs[i] / q) * q;
          if (i > 0 && coeffs[i] != 0.0f) {
            mask.Set(i);
            ac = true;
          }
        }
        if (!ac) continue;
        blocks.insert(blocks.end(), coeffs, coeffs + 64);
        masks.push_back(mask);
      }
    }
  }
  std::vector<float> out(blocks.size());
  const size_t n = masks.size();
  for (auto _ : state) {
    for (size_t b = 0; b < n; ++b) {
      InverseDct8x8(&blocks[64 * b], &out[64 * b], masks[b]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(std::to_string(n) + " blocks");
}
BENCHMARK(BM_InverseDct8x8)->Unit(benchmark::kMicrosecond);

// One 160×120 frame at quality 50, the frame size the expansion path
// decodes.
void BM_TjpegEncode(benchmark::State& state) {
  Image frame = videogen::Frame(kW, kH, 0, 77);
  for (auto _ : state) {
    auto encoded = TjpegEncode(frame, 50);
    CheckOk(encoded.status(), "encode");
    benchmark::DoNotOptimize(encoded->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TjpegEncode)->Unit(benchmark::kMicrosecond);

void BM_TjpegDecode(benchmark::State& state) {
  Bytes encoded =
      ValueOrDie(TjpegEncode(videogen::Frame(kW, kH, 0, 77), 50), "encode");
  for (auto _ : state) {
    auto decoded = TjpegDecode(encoded);
    CheckOk(decoded.status(), "decode");
    benchmark::DoNotOptimize(decoded->data.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TjpegDecode)->Unit(benchmark::kMicrosecond);

// The first step of a TJPEG encode of RGB: one frame to 4:2:0.
void BM_RgbToYuv(benchmark::State& state) {
  Image frame = videogen::Frame(kW, kH, 0, 77);
  for (auto _ : state) {
    auto yuv = RgbToYuv(frame, ColorModel::kYuv420);
    CheckOk(yuv.status(), "to yuv");
    benchmark::DoNotOptimize(yuv->data.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RgbToYuv)->Unit(benchmark::kMicrosecond);

// The last step of a TJPEG decode of RGB: one 4:2:0 frame to RGB.
void BM_YuvToRgb(benchmark::State& state) {
  Image yuv = ValueOrDie(
      RgbToYuv(videogen::Frame(kW, kH, 0, 77), ColorModel::kYuv420), "yuv");
  for (auto _ : state) {
    auto rgb = YuvToRgb(yuv);
    CheckOk(rgb.status(), "to rgb");
    benchmark::DoNotOptimize(rgb->data.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YuvToRgb)->Unit(benchmark::kMicrosecond);

void BM_TmpegEncode(benchmark::State& state) {
  std::vector<Image> clip = Clip();
  TmpegConfig config;
  config.quality = 50;
  config.key_interval = 12;
  config.motion_compensation = state.range(0) != 0;
  for (auto _ : state) {
    auto encoded = TmpegEncodeSequence(clip, config);
    CheckOk(encoded.status(), "encode");
    benchmark::DoNotOptimize(encoded->size());
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
  state.SetLabel(state.range(0) ? "motion" : "plain");
}
BENCHMARK(BM_TmpegEncode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TmpegDecode(benchmark::State& state) {
  std::vector<Image> clip = Clip();
  TmpegConfig config;
  config.quality = 50;
  config.key_interval = 12;
  config.motion_compensation = state.range(0) != 0;
  auto encoded = ValueOrDie(TmpegEncodeSequence(clip, config), "encode");
  for (auto _ : state) {
    auto decoded = TmpegDecodeSequence(encoded);
    CheckOk(decoded.status(), "decode");
    benchmark::DoNotOptimize(decoded->size());
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
  state.SetLabel(state.range(0) ? "motion" : "plain");
}
BENCHMARK(BM_TmpegDecode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AdpcmEncode(benchmark::State& state) {
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.6, 1.0);
  for (auto _ : state) {
    auto blocks = AdpcmEncode(audio, 1024);
    CheckOk(blocks.status(), "encode");
    benchmark::DoNotOptimize(blocks->size());
  }
  state.SetItemsProcessed(state.iterations() * audio.samples.size());
}
BENCHMARK(BM_AdpcmEncode);

void BM_AdpcmDecode(benchmark::State& state) {
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.6, 1.0);
  auto blocks = ValueOrDie(AdpcmEncode(audio, 1024), "encode");
  for (auto _ : state) {
    auto decoded = AdpcmDecode(blocks, 44100, 2);
    CheckOk(decoded.status(), "decode");
    benchmark::DoNotOptimize(decoded->samples.data());
  }
  state.SetItemsProcessed(state.iterations() * audio.samples.size());
}
BENCHMARK(BM_AdpcmDecode);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  bool stats = tbm::bench::ConsumeFlag(&argc, argv, "--stats");
  tbm::PrintVideoAblation();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  if (stats) tbm::bench::PrintRegistrySnapshot();
  return 0;
}
