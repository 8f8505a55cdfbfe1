#include "codec/color.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/macros.h"
#include "base/simd.h"

namespace tbm {

namespace {

uint8_t ClampByte(double v) {
  return static_cast<uint8_t>(std::lround(std::clamp(v, 0.0, 255.0)));
}

// Scalar companion to the vector clamp+round below: identical
// semantics (clamp to [0,255], round to nearest even) so per-cell
// chroma averaging matches the per-pixel vector path's rounding rule.
uint8_t ClampRoundByteF(float v) {
  v = std::min(255.0f, std::max(0.0f, v));
  return static_cast<uint8_t>(std::nearbyintf(v));
}

// BT.601 full-range luma/chroma for a group of up to four pixels.
// Interleaved RGB is gathered into float lanes (padding lanes are
// zero and ignored by the caller); Y is clamped and rounded to
// nearest-even, U/V are returned unclamped for chroma-cell averaging.
// All arithmetic runs through simd::F32x4 in a fixed order, so every
// backend (SSE2/NEON/scalar) produces identical bytes.
void RgbGroupToYuv(const uint8_t* px, int n, int32_t y_out[4], float u_out[4],
                   float v_out[4]) {
  using simd::F32x4;
  float rf[4] = {0, 0, 0, 0}, gf[4] = {0, 0, 0, 0}, bf[4] = {0, 0, 0, 0};
  for (int i = 0; i < n; ++i) {
    rf[i] = px[3 * i + 0];
    gf[i] = px[3 * i + 1];
    bf[i] = px[3 * i + 2];
  }
  F32x4 r = F32x4::Load(rf), g = F32x4::Load(gf), b = F32x4::Load(bf);
  F32x4 y = F32x4::Splat(0.299f) * r + F32x4::Splat(0.587f) * g +
            F32x4::Splat(0.114f) * b;
  F32x4 u = F32x4::Splat(128.0f) - F32x4::Splat(0.168736f) * r -
            F32x4::Splat(0.331264f) * g + F32x4::Splat(0.5f) * b;
  F32x4 v = F32x4::Splat(128.0f) + F32x4::Splat(0.5f) * r -
            F32x4::Splat(0.418688f) * g - F32x4::Splat(0.081312f) * b;
  F32x4::Min(F32x4::Splat(255.0f), F32x4::Max(F32x4::Zero(), y))
      .RoundStoreI32(y_out);
  u.Store(u_out);
  v.Store(v_out);
}

// Inverse transform for a group of up to four pixels; Y/U/V lanes in,
// clamped rounded RGB int lanes out.
void YuvGroupToRgb(simd::F32x4 y, simd::F32x4 u, simd::F32x4 v,
                   int32_t r_out[4], int32_t g_out[4], int32_t b_out[4]) {
  using simd::F32x4;
  u = u - F32x4::Splat(128.0f);
  v = v - F32x4::Splat(128.0f);
  F32x4 r = y + F32x4::Splat(1.402f) * v;
  F32x4 g = y - F32x4::Splat(0.344136f) * u - F32x4::Splat(0.714136f) * v;
  F32x4 b = y + F32x4::Splat(1.772f) * u;
  const F32x4 lo = F32x4::Zero(), hi = F32x4::Splat(255.0f);
  F32x4::Min(hi, F32x4::Max(lo, r)).RoundStoreI32(r_out);
  F32x4::Min(hi, F32x4::Max(lo, g)).RoundStoreI32(g_out);
  F32x4::Min(hi, F32x4::Max(lo, b)).RoundStoreI32(b_out);
}

}  // namespace

Result<Image> RgbToYuv(const Image& rgb, ColorModel target) {
  TBM_RETURN_IF_ERROR(rgb.Validate());
  if (rgb.model != ColorModel::kRgb24) {
    return Status::InvalidArgument("RgbToYuv expects an RGB image");
  }
  if (target != ColorModel::kYuv444 && target != ColorModel::kYuv422 &&
      target != ColorModel::kYuv420) {
    return Status::InvalidArgument("RgbToYuv target must be a YUV model");
  }
  const int32_t w = rgb.width;
  const int32_t h = rgb.height;
  Image out = Image::Zero(w, h, target);
  const int32_t cw = out.ChromaWidth();
  const int32_t ch = out.ChromaHeight();
  Bytes pixels_out(out.data.size(), 0);
  uint8_t* y_plane = pixels_out.data();
  uint8_t* u_plane = y_plane + static_cast<size_t>(w) * h;
  uint8_t* v_plane = u_plane + static_cast<size_t>(cw) * ch;

  // Accumulators for chroma averaging over each subsampling cell.
  std::vector<float> u_acc(static_cast<size_t>(cw) * ch, 0.0f);
  std::vector<float> v_acc(static_cast<size_t>(cw) * ch, 0.0f);
  std::vector<int> count(static_cast<size_t>(cw) * ch, 0);
  const int x_shift = (target == ColorModel::kYuv444) ? 0 : 1;
  const int y_shift = (target == ColorModel::kYuv420) ? 1 : 0;

  for (int32_t row = 0; row < h; ++row) {
    for (int32_t col = 0; col < w; col += 4) {
      const int n = std::min<int32_t>(4, w - col);
      const uint8_t* px =
          rgb.data.data() + 3 * (static_cast<size_t>(row) * w + col);
      int32_t y4[4];
      float u4[4], v4[4];
      RgbGroupToYuv(px, n, y4, u4, v4);
      for (int i = 0; i < n; ++i) {
        y_plane[static_cast<size_t>(row) * w + col + i] =
            static_cast<uint8_t>(y4[i]);
        size_t ci =
            static_cast<size_t>(row >> y_shift) * cw + ((col + i) >> x_shift);
        u_acc[ci] += u4[i];
        v_acc[ci] += v4[i];
        ++count[ci];
      }
    }
  }
  for (size_t i = 0; i < u_acc.size(); ++i) {
    u_plane[i] = ClampRoundByteF(u_acc[i] / static_cast<float>(count[i]));
    v_plane[i] = ClampRoundByteF(v_acc[i] / static_cast<float>(count[i]));
  }
  out.data = std::move(pixels_out);
  return out;
}

Result<Image> YuvToRgb(const Image& yuv) {
  TBM_RETURN_IF_ERROR(yuv.Validate());
  if (yuv.model != ColorModel::kYuv444 && yuv.model != ColorModel::kYuv422 &&
      yuv.model != ColorModel::kYuv420) {
    return Status::InvalidArgument("YuvToRgb expects a YUV image");
  }
  const int32_t w = yuv.width;
  const int32_t h = yuv.height;
  const int32_t cw = yuv.ChromaWidth();
  const uint8_t* y_plane = yuv.data.data();
  const uint8_t* u_plane = y_plane + static_cast<size_t>(w) * h;
  const uint8_t* v_plane =
      u_plane + static_cast<size_t>(cw) * yuv.ChromaHeight();
  const int x_shift = (yuv.model == ColorModel::kYuv444) ? 0 : 1;
  const int y_shift = (yuv.model == ColorModel::kYuv420) ? 1 : 0;

  Image out = Image::Zero(w, h, ColorModel::kRgb24);
  Bytes pixels_out(out.data.size(), 0);
  for (int32_t row = 0; row < h; ++row) {
    const uint8_t* y_row = y_plane + static_cast<size_t>(row) * w;
    const size_t chroma_row = static_cast<size_t>(row >> y_shift) * cw;
    uint8_t* px = pixels_out.data() + 3 * static_cast<size_t>(row) * w;
    for (int32_t col = 0; col < w; col += 4, px += 12) {
      const int n = std::min<int32_t>(4, w - col);
      const uint8_t* ys = y_row + col;
      const uint8_t* us = u_plane + chroma_row + (col >> x_shift);
      const uint8_t* vs = v_plane + chroma_row + (col >> x_shift);
      // A row's last, partial group copies its bytes out so the lane
      // loads stay inside the planes; its padding lanes are ignored.
      uint8_t tail[3][4];
      if (n < 4) {
        const int chroma_n = ((n - 1) >> x_shift) + 1;
        std::memset(tail, 0, sizeof(tail));
        std::memcpy(tail[0], ys, n);
        std::memcpy(tail[1], us, chroma_n);
        std::memcpy(tail[2], vs, chroma_n);
        ys = tail[0];
        us = tail[1];
        vs = tail[2];
      }
      // Subsampled chroma covers two pixels per byte: duplicate each.
      const simd::F32x4 u = x_shift ? simd::F32x4::FromU8Pairs(us)
                                    : simd::F32x4::FromU8(us);
      const simd::F32x4 v = x_shift ? simd::F32x4::FromU8Pairs(vs)
                                    : simd::F32x4::FromU8(vs);
      int32_t r4[4], g4[4], b4[4];
      YuvGroupToRgb(simd::F32x4::FromU8(ys), u, v, r4, g4, b4);
      for (int i = 0; i < n; ++i) {
        px[3 * i + 0] = static_cast<uint8_t>(r4[i]);
        px[3 * i + 1] = static_cast<uint8_t>(g4[i]);
        px[3 * i + 2] = static_cast<uint8_t>(b4[i]);
      }
    }
  }
  out.data = std::move(pixels_out);
  return out;
}

void RgbToCmykPixels(const uint8_t* rgb, uint8_t* cmyk, size_t n,
                     const SeparationParams& params) {
  for (size_t i = 0; i < n; ++i) {
    double c = 1.0 - rgb[3 * i + 0] / 255.0;
    double m = 1.0 - rgb[3 * i + 1] / 255.0;
    double y = 1.0 - rgb[3 * i + 2] / 255.0;
    double gray = std::min({c, m, y});
    double k = params.black_generation * gray;
    double removal = params.under_color_removal * k;
    c -= removal;
    m -= removal;
    y -= removal;
    cmyk[4 * i + 0] = ClampByte(c * 255.0);
    cmyk[4 * i + 1] = ClampByte(m * 255.0);
    cmyk[4 * i + 2] = ClampByte(y * 255.0);
    cmyk[4 * i + 3] = ClampByte(k * 255.0);
  }
}

Result<Image> RgbToCmyk(const Image& rgb, const SeparationParams& params) {
  TBM_RETURN_IF_ERROR(rgb.Validate());
  if (rgb.model != ColorModel::kRgb24) {
    return Status::InvalidArgument("RgbToCmyk expects an RGB image");
  }
  if (params.black_generation < 0.0 || params.black_generation > 1.0 ||
      params.under_color_removal < 0.0 || params.under_color_removal > 1.0) {
    return Status::InvalidArgument("separation parameters must be in [0,1]");
  }
  Image out = Image::Zero(rgb.width, rgb.height, ColorModel::kCmyk32);
  Bytes pixels_out(out.data.size(), 0);
  RgbToCmykPixels(rgb.data.data(), pixels_out.data(), rgb.PixelCount(),
                  params);
  out.data = std::move(pixels_out);
  return out;
}

Result<Image> CmykToRgb(const Image& cmyk) {
  TBM_RETURN_IF_ERROR(cmyk.Validate());
  if (cmyk.model != ColorModel::kCmyk32) {
    return Status::InvalidArgument("CmykToRgb expects a CMYK image");
  }
  Image out = Image::Zero(cmyk.width, cmyk.height, ColorModel::kRgb24);
  Bytes pixels_out(out.data.size(), 0);
  const size_t pixels = cmyk.PixelCount();
  for (size_t i = 0; i < pixels; ++i) {
    double c = cmyk.data[4 * i + 0] / 255.0;
    double m = cmyk.data[4 * i + 1] / 255.0;
    double y = cmyk.data[4 * i + 2] / 255.0;
    double k = cmyk.data[4 * i + 3] / 255.0;
    pixels_out[3 * i + 0] = ClampByte((1.0 - std::min(1.0, c + k)) * 255.0);
    pixels_out[3 * i + 1] = ClampByte((1.0 - std::min(1.0, m + k)) * 255.0);
    pixels_out[3 * i + 2] = ClampByte((1.0 - std::min(1.0, y + k)) * 255.0);
  }
  out.data = std::move(pixels_out);
  return out;
}

Result<Image> CmykPlate(const Image& cmyk, int channel) {
  TBM_RETURN_IF_ERROR(cmyk.Validate());
  if (cmyk.model != ColorModel::kCmyk32) {
    return Status::InvalidArgument("CmykPlate expects a CMYK image");
  }
  if (channel < 0 || channel > 3) {
    return Status::InvalidArgument("CMYK channel must be 0..3");
  }
  Image out = Image::Zero(cmyk.width, cmyk.height, ColorModel::kGray8);
  Bytes pixels_out(out.data.size(), 0);
  const size_t pixels = cmyk.PixelCount();
  for (size_t i = 0; i < pixels; ++i) {
    pixels_out[i] = cmyk.data[4 * i + channel];
  }
  out.data = std::move(pixels_out);
  return out;
}

Result<Image> RgbToGray(const Image& rgb) {
  TBM_RETURN_IF_ERROR(rgb.Validate());
  if (rgb.model != ColorModel::kRgb24) {
    return Status::InvalidArgument("RgbToGray expects an RGB image");
  }
  Image out = Image::Zero(rgb.width, rgb.height, ColorModel::kGray8);
  Bytes pixels_out(out.data.size(), 0);
  const size_t pixels = rgb.PixelCount();
  for (size_t i = 0; i < pixels; ++i) {
    pixels_out[i] = ClampByte(0.299 * rgb.data[3 * i] +
                              0.587 * rgb.data[3 * i + 1] +
                              0.114 * rgb.data[3 * i + 2]);
  }
  out.data = std::move(pixels_out);
  return out;
}

}  // namespace tbm
