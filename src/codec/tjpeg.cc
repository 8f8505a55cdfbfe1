#include "codec/tjpeg.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/macros.h"
#include "base/simd.h"
#include "codec/codec_metrics.h"
#include "codec/color.h"
#include "obs/trace.h"
#include "codec/dct.h"

namespace tbm {

namespace tjpeg_internal {

namespace {

constexpr uint64_t kEobMarker = 64;  // Zero-run value signalling end of block.

// Extracts an 8×8 block at (bx,by) with edge replication.
void ExtractBlock(const int16_t* plane, int32_t w, int32_t h, int32_t bx,
                  int32_t by, float out[64]) {
  if (bx + 8 <= w && by + 8 <= h) {
    for (int y = 0; y < 8; ++y) {
      const int16_t* row = &plane[static_cast<size_t>(by + y) * w + bx];
      simd::F32x4::FromI16(row).Store(&out[y * 8]);
      simd::F32x4::FromI16(row + 4).Store(&out[y * 8 + 4]);
    }
    return;
  }
  for (int y = 0; y < 8; ++y) {
    int32_t sy = std::min<int32_t>(by + y, h - 1);
    for (int x = 0; x < 8; ++x) {
      int32_t sx = std::min<int32_t>(bx + x, w - 1);
      out[y * 8 + x] = static_cast<float>(plane[sy * w + sx]);
    }
  }
}

void StoreBlock(const float in[64], int32_t w, int32_t h, int32_t bx,
                int32_t by, int16_t* plane) {
  const size_t cols = std::min<int32_t>(8, w - bx);
  for (int y = 0; y < 8 && by + y < h; ++y) {
    int16_t* dst = &plane[static_cast<size_t>(by + y) * w + bx];
    if (cols == 8) {
      simd::ClampRoundStoreI16x8(&in[y * 8], dst);
      continue;
    }
    // A block past the right edge rounds whole rows and keeps their
    // first `cols` values.
    int16_t row[8];
    simd::ClampRoundStoreI16x8(&in[y * 8], row);
    std::memcpy(dst, row, cols * sizeof(int16_t));
  }
}

}  // namespace

void EncodePlane(const int16_t* plane, int32_t w, int32_t h,
                 const std::array<uint16_t, 64>& quant, BinaryWriter* writer) {
  float block[64], coeffs[64];
  // Divisors in zigzag order, the order coefficients are quantized in.
  float qf[64];
  for (int k = 0; k < 64; ++k) qf[k] = static_cast<float>(quant[kZigzag[k]]);
  int32_t prev_dc = 0;
  for (int32_t by = 0; by < h; by += 8) {
    for (int32_t bx = 0; bx < w; bx += 8) {
      ExtractBlock(plane, w, h, bx, by, block);
      ForwardDct8x8(block, coeffs);
      float zigzag[64];
      for (int k = 0; k < 64; ++k) zigzag[k] = coeffs[kZigzag[k]];
      // Quantize four coefficients per step, rounding to nearest even on
      // every backend; bit k of `nonzero` marks zigzag position k.
      int32_t q[64];
      uint64_t nonzero = 0;
      for (int k = 0; k < 64; k += 4) {
        (simd::F32x4::Load(&zigzag[k]) / simd::F32x4::Load(&qf[k]))
            .RoundStoreI32(&q[k]);
        nonzero |= uint64_t{simd::NonzeroLanesI32x4(&q[k])} << k;
      }
      // DC: delta from previous block.
      writer->WriteVarI64(q[0] - prev_dc);
      prev_dc = q[0];
      // AC: the run of zeros before each nonzero value.
      int last = 0;
      for (uint64_t ac = nonzero & ~uint64_t{1}; ac != 0; ac &= ac - 1) {
        const int k = std::countr_zero(ac);
        writer->WriteVarU64(static_cast<uint64_t>(k - last - 1));
        writer->WriteVarI64(q[k]);
        last = k;
      }
      writer->WriteVarU64(kEobMarker);
    }
  }
}

uint64_t MinPlaneBytes(int32_t w, int32_t h) {
  const uint64_t blocks = static_cast<uint64_t>((w + 7) / 8) * ((h + 7) / 8);
  return 2 * blocks;
}

Status DecodePlane(BinaryReader* reader, int32_t w, int32_t h,
                   const std::array<uint16_t, 64>& quant, int16_t* plane) {
  // Dequantized coefficients, row-major. A block writes only the
  // positions its stream codes and resets them after its transform, so
  // every other position holds the +0 of a zero coefficient.
  float coeffs[64] = {};
  float block[64];
  // Multipliers in zigzag order, the order coefficients are coded in.
  float qf[64];
  for (int k = 0; k < 64; ++k) qf[k] = static_cast<float>(quant[kZigzag[k]]);
  int32_t prev_dc = 0;
  for (int32_t by = 0; by < h; by += 8) {
    for (int32_t bx = 0; bx < w; bx += 8) {
      TBM_ASSIGN_OR_RETURN(int64_t dc_delta, reader->ReadVarI64());
      prev_dc += static_cast<int32_t>(dc_delta);
      const float dc = static_cast<float>(prev_dc) * qf[0];
      uint8_t coded[63];  // Row-major positions of the coded AC values.
      int n = 0;
      DctMask mask;
      mask.Set(0);
      int k = 1;
      while (k < 64) {
        TBM_ASSIGN_OR_RETURN(uint64_t run, reader->ReadVarU64());
        if (run == kEobMarker) break;
        if (run >= static_cast<uint64_t>(64 - k)) {
          return Status::Corruption("TJPEG: AC run overflow");
        }
        k += static_cast<int>(run);
        TBM_ASSIGN_OR_RETURN(int64_t v, reader->ReadVarI64());
        const int z = kZigzag[k];
        coeffs[z] = static_cast<float>(static_cast<int32_t>(v)) * qf[k];
        coded[n++] = static_cast<uint8_t>(z);
        mask.Set(z);
        ++k;
      }
      if (k >= 64) {
        // Block filled exactly; consume its EOB marker.
        TBM_ASSIGN_OR_RETURN(uint64_t eob, reader->ReadVarU64());
        if (eob != kEobMarker) {
          return Status::Corruption("TJPEG: missing end-of-block");
        }
      }
      if (n == 0) {
        // Every output of a DC-only transform is the same value, so one
        // rounded row serves the whole block.
        float values[8];
        std::fill_n(values, 8, InverseDctDc(dc));
        int16_t row[8];
        simd::ClampRoundStoreI16x8(values, row);
        const size_t cols = std::min<int32_t>(8, w - bx);
        for (int32_t y = by; y < by + 8 && y < h; ++y) {
          std::memcpy(&plane[static_cast<size_t>(y) * w + bx], row,
                      cols * sizeof(int16_t));
        }
        continue;
      }
      coeffs[0] = dc;
      InverseDct8x8(coeffs, block, mask);
      StoreBlock(block, w, h, bx, by, plane);
      for (int i = 0; i < n; ++i) coeffs[coded[i]] = 0.0f;
    }
  }
  return Status::OK();
}

}  // namespace tjpeg_internal

namespace {

constexpr uint32_t kTjpegMagic = 0x4745'504Au;  // "JPEG" reversed-ish tag.

std::vector<int16_t> LevelShift(const uint8_t* plane, size_t n) {
  std::vector<int16_t> out(n);
  simd::LevelShiftBytes(plane, out.data(), n);
  return out;
}

void LevelUnshift(const std::vector<int16_t>& plane, uint8_t* out) {
  simd::LevelUnshiftBytes(plane.data(), out, plane.size());
}

}  // namespace

Result<Bytes> TjpegEncode(const Image& image, int quality) {
  obs::ScopedSpan span("codec.tjpeg.encode");
  const auto& metrics = codec_internal::CodecMetrics::Get();
  obs::ScopedTimerUs timer(metrics.encode_us);
  metrics.encodes->Add();
  TBM_RETURN_IF_ERROR(image.Validate());
  if (quality < 1 || quality > 100) {
    return Status::InvalidArgument("TJPEG quality must be 1..100");
  }

  Image yuv;
  bool gray = false;
  if (image.model == ColorModel::kRgb24) {
    TBM_ASSIGN_OR_RETURN(yuv, RgbToYuv(image, ColorModel::kYuv420));
  } else if (image.model == ColorModel::kGray8) {
    yuv = image;
    gray = true;
  } else if (image.model == ColorModel::kYuv420) {
    yuv = image;
  } else {
    return Status::Unsupported("TJPEG encodes RGB, GRAY or YUV 4:2:0 input");
  }

  BinaryWriter writer;
  writer.WriteU32(kTjpegMagic);
  writer.WriteU8(gray ? 1 : 0);
  writer.WriteU8(static_cast<uint8_t>(image.model));
  writer.WriteU8(static_cast<uint8_t>(quality));
  writer.WriteVarU64(static_cast<uint64_t>(image.width));
  writer.WriteVarU64(static_cast<uint64_t>(image.height));

  auto luma_q = ScaleQuantTable(kLumaQuantBase, quality);
  const int32_t w = yuv.width, h = yuv.height;
  {
    auto plane = LevelShift(yuv.data.data(), static_cast<size_t>(w) * h);
    tjpeg_internal::EncodePlane(plane.data(), w, h, luma_q, &writer);
  }
  if (!gray) {
    auto chroma_q = ScaleQuantTable(kChromaQuantBase, quality);
    const int32_t cw = yuv.ChromaWidth(), ch = yuv.ChromaHeight();
    const uint8_t* u = yuv.data.data() + static_cast<size_t>(w) * h;
    const uint8_t* v = u + static_cast<size_t>(cw) * ch;
    auto u_plane = LevelShift(u, static_cast<size_t>(cw) * ch);
    tjpeg_internal::EncodePlane(u_plane.data(), cw, ch, chroma_q, &writer);
    auto v_plane = LevelShift(v, static_cast<size_t>(cw) * ch);
    tjpeg_internal::EncodePlane(v_plane.data(), cw, ch, chroma_q, &writer);
  }
  return writer.TakeBuffer();
}

Result<Image> TjpegDecode(ByteSpan bytes) {
  obs::ScopedSpan span("codec.tjpeg.decode");
  const auto& metrics = codec_internal::CodecMetrics::Get();
  obs::ScopedTimerUs timer(metrics.decode_us);
  metrics.decodes->Add();
  BinaryReader reader(bytes);
  TBM_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kTjpegMagic) {
    return Status::Corruption("not a TJPEG payload");
  }
  TBM_ASSIGN_OR_RETURN(uint8_t gray, reader.ReadU8());
  TBM_ASSIGN_OR_RETURN(uint8_t source_model, reader.ReadU8());
  TBM_ASSIGN_OR_RETURN(uint8_t quality, reader.ReadU8());
  TBM_ASSIGN_OR_RETURN(uint64_t w64, reader.ReadVarU64());
  TBM_ASSIGN_OR_RETURN(uint64_t h64, reader.ReadVarU64());
  if (w64 == 0 || h64 == 0 || w64 > (1u << 20) || h64 > (1u << 20)) {
    return Status::Corruption("TJPEG: implausible geometry");
  }
  const int32_t w = static_cast<int32_t>(w64);
  const int32_t h = static_cast<int32_t>(h64);
  if (quality < 1 || quality > 100) {
    return Status::Corruption("TJPEG: bad quality byte");
  }

  Image out;
  out.width = w;
  out.height = h;
  out.model = gray ? ColorModel::kGray8 : ColorModel::kYuv420;
  const int32_t cw = out.ChromaWidth(), ch = out.ChromaHeight();
  const uint64_t min_bytes =
      tjpeg_internal::MinPlaneBytes(w, h) +
      (gray ? 0 : 2 * tjpeg_internal::MinPlaneBytes(cw, ch));
  if (reader.remaining() < min_bytes) {
    return Status::Corruption("TJPEG: payload too short for its geometry");
  }

  Bytes pixels(Image::ExpectedBytes(w, h, out.model));
  {
    auto luma_q = ScaleQuantTable(kLumaQuantBase, quality);
    std::vector<int16_t> plane(static_cast<size_t>(w) * h);
    TBM_RETURN_IF_ERROR(
        tjpeg_internal::DecodePlane(&reader, w, h, luma_q, plane.data()));
    LevelUnshift(plane, pixels.data());
  }
  if (!gray) {
    auto chroma_q = ScaleQuantTable(kChromaQuantBase, quality);
    uint8_t* u = pixels.data() + static_cast<size_t>(w) * h;
    uint8_t* v = u + static_cast<size_t>(cw) * ch;
    std::vector<int16_t> plane(static_cast<size_t>(cw) * ch);
    for (uint8_t* dst : {u, v}) {
      TBM_RETURN_IF_ERROR(tjpeg_internal::DecodePlane(&reader, cw, ch,
                                                      chroma_q, plane.data()));
      LevelUnshift(plane, dst);
    }
  }
  out.data = std::move(pixels);
  if (gray || static_cast<ColorModel>(source_model) == ColorModel::kYuv420) {
    return out;
  }
  return YuvToRgb(out);
}

double TjpegBitsPerPixel(const Image& image, size_t encoded_bytes) {
  if (image.PixelCount() == 0) return 0.0;
  return 8.0 * static_cast<double>(encoded_bytes) /
         static_cast<double>(image.PixelCount());
}

}  // namespace tbm
