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

// Chroma of eight pixels, unclamped so that a subsampled cell can
// average it: uv[0] is U and uv[1] is V; [0] holds pixels 0-3, [1]
// pixels 4-7.
struct Chroma8 {
  simd::F32x4 uv[2][2];
};

// BT.601 full-range conversion of eight interleaved RGB pixels (24
// bytes at `px`): writes their luma, clamped and rounded to nearest
// even, to y_out[0..7] and returns their chroma. All arithmetic runs
// through simd::F32x4 in a fixed order, so every backend (SSE2/NEON/
// scalar) produces identical bytes. Inline, so the chroma stays in
// registers for SumCells.
[[gnu::always_inline]] inline Chroma8 RgbToYuv8(const uint8_t* px,
                                                uint8_t* y_out) {
  using simd::F32x4;
  F32x4 r[2], g[2], b[2];
  simd::DeinterleaveRgb8(px, r, g, b);
  Chroma8 c;
  for (int i = 0; i < 2; ++i) {
    F32x4 y = F32x4::Splat(0.299f) * r[i] + F32x4::Splat(0.587f) * g[i] +
              F32x4::Splat(0.114f) * b[i];
    F32x4::Min(F32x4::Splat(255.0f), F32x4::Max(F32x4::Zero(), y))
        .RoundStoreU8(y_out + 4 * i);
    c.uv[0][i] = F32x4::Splat(128.0f) - F32x4::Splat(0.168736f) * r[i] -
                 F32x4::Splat(0.331264f) * g[i] + F32x4::Splat(0.5f) * b[i];
    c.uv[1][i] = F32x4::Splat(128.0f) + F32x4::Splat(0.5f) * r[i] -
                 F32x4::Splat(0.418688f) * g[i] -
                 F32x4::Splat(0.081312f) * b[i];
  }
  return c;
}

// Sets the chroma of pixels n..7 to +0, which adds nothing to a sum.
void ZeroChromaFrom(int n, Chroma8* c) {
  for (simd::F32x4* lanes : c->uv) {
    float f[8];
    lanes[0].Store(f);
    lanes[1].Store(f + 4);
    std::fill(f + n, f + 8, 0.0f);
    lanes[0] = simd::F32x4::Load(f);
    lanes[1] = simd::F32x4::Load(f + 4);
  }
}

// Sums chroma plane `plane` over the cells of an eight-pixel step of
// `nrows` rows, adding each cell's samples left to right along the top
// row, then along the bottom row: ((a0 + a1) + b0) + b1 for a 2×2 cell.
// Halved horizontally the step covers four cells (sum[0]), else eight.
[[gnu::always_inline]] inline void SumCells(const Chroma8 rows[], int nrows,
                                            int plane, bool halved,
                                            simd::F32x4 sum[2]) {
  using simd::F32x4;
  for (int r = 0; r < nrows; ++r) {
    const F32x4* lanes = rows[r].uv[plane];
    if (halved) {
      const F32x4 even = F32x4::Evens(lanes[0], lanes[1]);
      const F32x4 odd = F32x4::Odds(lanes[0], lanes[1]);
      sum[0] = r == 0 ? even + odd : (sum[0] + even) + odd;
    } else {
      for (int i = 0; i < 2; ++i) {
        sum[i] = r == 0 ? lanes[i] : sum[i] + lanes[i];
      }
    }
  }
}

#if defined(TBM_SIMD_AVX2)

// The Cells420Fn of RgbToYuv8 and SumCells in eight lanes: each step
// converts 16 columns of two rows, the even and the odd pixels of a row
// in separate registers, so a cell's sum is ((a0 + a1) + b0) + b1 of
// per-pixel values with no shuffle. Every lane does the four-lane
// step's operations in its order; the three 16-byte loads per row end
// at the step's last pixel.
TBM_SIMD_AVX2_TARGET int32_t Cells420Avx2(const uint8_t* rgb, int32_t w,
                                          uint8_t* y, uint8_t* u, uint8_t* v) {
  using simd::F32x8;
  const F32x8 lo = F32x8::Zero(), hi = F32x8::Splat(255.0f);
  const size_t stride = 3 * static_cast<size_t>(w);
  int32_t col = 0;
  for (; col + 16 <= w; col += 16) {
    const simd::Rgb16x2 px =
        simd::Rgb16x2::Load(rgb + 3 * static_cast<size_t>(col), stride);
    // luma[i][r]: row r's even (i = 0) or odd (i = 1) pixels.
    F32x8 luma[2][2];
    F32x8 usum = lo, vsum = lo;
#pragma GCC unroll 2
    for (int r = 0; r < 2; ++r) {
#pragma GCC unroll 2
      for (int i = 0; i < 2; ++i) {
        const F32x8 red = px.Lanes(0, r, i == 1);
        const F32x8 green = px.Lanes(1, r, i == 1);
        const F32x8 blue = px.Lanes(2, r, i == 1);
        const F32x8 luma_f = F32x8::Splat(0.299f) * red +
                             F32x8::Splat(0.587f) * green +
                             F32x8::Splat(0.114f) * blue;
        luma[i][r] = F32x8::Min(hi, F32x8::Max(lo, luma_f));
        const F32x8 cu = F32x8::Splat(128.0f) -
                         F32x8::Splat(0.168736f) * red -
                         F32x8::Splat(0.331264f) * green +
                         F32x8::Splat(0.5f) * blue;
        const F32x8 cv = F32x8::Splat(128.0f) + F32x8::Splat(0.5f) * red -
                         F32x8::Splat(0.418688f) * green -
                         F32x8::Splat(0.081312f) * blue;
        // A sum starts at its first term, as in SumCells, not at +0.
        usum = r == 0 && i == 0 ? cu : usum + cu;
        vsum = r == 0 && i == 0 ? cv : vsum + cv;
      }
    }
    simd::RoundStoreEvenOddU8x16(luma[0], luma[1], y + col, y + w + col);
    const F32x8 count = F32x8::Splat(4.0f);
    simd::RoundStoreU8x8x2(F32x8::Min(hi, F32x8::Max(lo, usum / count)),
                           F32x8::Min(hi, F32x8::Max(lo, vsum / count)),
                           u + col / 2, v + col / 2);
  }
  return col;
}

#endif  // TBM_SIMD_AVX2

// What the chroma of eight pixels adds to their luma in the inverse
// transform: r = y + rv, g = (y - gu) - gv, b = y + bu. Lanes as in
// Chroma8.
struct ChromaTerms8 {
  simd::F32x4 rv[2], gu[2], gv[2], bu[2];
};

// The terms of an eight-pixel step from its chroma samples at `us` and
// `vs`: eight samples, or four when `halved`, each then shared by two
// neighbouring pixels. Each product is computed once per sample.
ChromaTerms8 LoadChromaTerms(const uint8_t* us, const uint8_t* vs,
                             bool halved) {
  using simd::F32x4;
  ChromaTerms8 t;
  for (int i = 0; i < (halved ? 1 : 2); ++i) {
    const F32x4 u = F32x4::FromU8(us + 4 * i) - F32x4::Splat(128.0f);
    const F32x4 v = F32x4::FromU8(vs + 4 * i) - F32x4::Splat(128.0f);
    t.rv[i] = F32x4::Splat(1.402f) * v;
    t.gu[i] = F32x4::Splat(0.344136f) * u;
    t.gv[i] = F32x4::Splat(0.714136f) * v;
    t.bu[i] = F32x4::Splat(1.772f) * u;
  }
  if (halved) {
    for (F32x4* terms : {t.rv, t.gu, t.gv, t.bu}) {
      terms[1] = F32x4::ZipHi(terms[0], terms[0]);
      terms[0] = F32x4::ZipLo(terms[0], terms[0]);
    }
  }
  return t;
}

// Converts the eight luma samples at `ys` to 24 interleaved RGB bytes.
void YuvToRgb8(const uint8_t* ys, const ChromaTerms8& t, uint8_t* px) {
  using simd::F32x4;
  F32x4 r[2], g[2], b[2];
  for (int i = 0; i < 2; ++i) {
    const F32x4 y = F32x4::FromU8(ys + 4 * i);
    r[i] = y + t.rv[i];
    g[i] = (y - t.gu[i]) - t.gv[i];
    b[i] = y + t.bu[i];
  }
  simd::RoundStoreRgb8(r, g, b, px);
}

#if defined(TBM_SIMD_AVX2)

// The YuvRowsFn of LoadChromaTerms and YuvToRgb8 in eight lanes: each
// step converts 16 columns of every luma row of one chroma row. The
// chroma terms are computed once per sample, from 8 samples widened to
// pixel lanes when `kHalved`, else from 16, and every lane does the
// four-lane step's operations in its order. A step loads 16 luma bytes
// per row and 8 or 16 chroma bytes, all inside the step's own columns.
template <bool kHalved>
TBM_SIMD_AVX2_TARGET int32_t YuvRows16Avx2(const uint8_t* y, int32_t w,
                                           int nrows, const uint8_t* u,
                                           const uint8_t* v, uint8_t* rgb) {
  using simd::F32x8;
  const F32x8 bias = F32x8::Splat(128.0f);
  int32_t col = 0;
  for (; col + 16 <= w; col += 16) {
    const int32_t at = kHalved ? col / 2 : col;
    F32x8 rv[2], gu[2], gv[2], bu[2];
#pragma GCC unroll 2
    for (int i = 0; i < (kHalved ? 1 : 2); ++i) {
      const F32x8 cu = F32x8::FromU8(u + at + 8 * i) - bias;
      const F32x8 cv = F32x8::FromU8(v + at + 8 * i) - bias;
      rv[i] = F32x8::Splat(1.402f) * cv;
      gu[i] = F32x8::Splat(0.344136f) * cu;
      gv[i] = F32x8::Splat(0.714136f) * cv;
      bu[i] = F32x8::Splat(1.772f) * cu;
    }
    if (kHalved) {
      rv[1] = F32x8::RepeatHi(rv[0]);
      rv[0] = F32x8::RepeatLo(rv[0]);
      gu[1] = F32x8::RepeatHi(gu[0]);
      gu[0] = F32x8::RepeatLo(gu[0]);
      gv[1] = F32x8::RepeatHi(gv[0]);
      gv[0] = F32x8::RepeatLo(gv[0]);
      bu[1] = F32x8::RepeatHi(bu[0]);
      bu[0] = F32x8::RepeatLo(bu[0]);
    }
    for (int r = 0; r < nrows; ++r) {
      const size_t pixel = static_cast<size_t>(r) * w + col;
      F32x8 red[2], green[2], blue[2];
#pragma GCC unroll 2
      for (int i = 0; i < 2; ++i) {
        const F32x8 luma = F32x8::FromU8(y + pixel + 8 * i);
        red[i] = luma + rv[i];
        green[i] = (luma - gu[i]) - gv[i];
        blue[i] = luma + bu[i];
      }
      simd::RoundStoreRgb16(red, green, blue, rgb + 3 * pixel);
    }
  }
  return col;
}

TBM_SIMD_AVX2_TARGET int32_t YuvRowsAvx2(const uint8_t* y, int32_t w,
                                         int nrows, const uint8_t* u,
                                         const uint8_t* v, bool halved,
                                         uint8_t* rgb) {
  return halved ? YuvRows16Avx2<true>(y, w, nrows, u, v, rgb)
                : YuvRows16Avx2<false>(y, w, nrows, u, v, rgb);
}

#endif  // TBM_SIMD_AVX2

}  // namespace

namespace color_internal {

Cells420Fn ActiveCells420() {
#if defined(TBM_SIMD_AVX2)
  static const Cells420Fn cells = simd::HasAvx2() ? Cells420Avx2 : nullptr;
  return cells;
#else
  return nullptr;
#endif
}

Result<Image> RgbToYuvWith(const Image& rgb, ColorModel target,
                           Cells420Fn cells) {
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
  Image out;
  out.width = w;
  out.height = h;
  out.model = target;
  const int32_t cw = out.ChromaWidth();
  const int32_t ch = out.ChromaHeight();
  Bytes pixels_out(Image::ExpectedBytes(w, h, target));
  uint8_t* y_plane = pixels_out.data();
  uint8_t* u_plane = y_plane + static_cast<size_t>(w) * h;
  uint8_t* v_plane = u_plane + static_cast<size_t>(cw) * ch;

  const int x_shift = (target == ColorModel::kYuv444) ? 0 : 1;
  const int y_shift = (target == ColorModel::kYuv420) ? 1 : 0;
  const bool halved = x_shift == 1;
  using simd::F32x4;
  const F32x4 lo = F32x4::Zero(), hi = F32x4::Splat(255.0f);

  // One pass per chroma row: convert its one or two luma rows eight
  // pixels at a time and average each chroma cell in registers.
  uint8_t* const chroma_planes[2] = {u_plane, v_plane};
  for (int32_t cy = 0; cy < ch; ++cy) {
    const int32_t row = cy << y_shift;
    const int nrows = std::min<int32_t>(1 << y_shift, h - row);
    float full_count[8];
    std::fill(full_count, full_count + 8,
              static_cast<float>(nrows << x_shift));
    int32_t col = 0;
    if (cells != nullptr && nrows == 2 && halved) {
      col = cells(rgb.data.data() + 3 * static_cast<size_t>(row) * w, w,
                  y_plane + static_cast<size_t>(row) * w,
                  u_plane + static_cast<size_t>(cy) * cw,
                  v_plane + static_cast<size_t>(cy) * cw);
    }
    for (; col < w; col += 8) {
      const int n = std::min<int32_t>(8, w - col);
      Chroma8 c[2];
      for (int r = 0; r < nrows; ++r) {
        const size_t at = static_cast<size_t>(row + r) * w + col;
        const uint8_t* px = rgb.data.data() + 3 * at;
        if (n == 8) {
          c[r] = RgbToYuv8(px, y_plane + at);
          continue;
        }
        // A row's last, partial step converts a zero-padded copy and
        // zeroes the padding's chroma, so a partial cell sums only its
        // own pixels, in the same order.
        uint8_t padded[24] = {}, y8[8];
        std::memcpy(padded, px, 3 * static_cast<size_t>(n));
        c[r] = RgbToYuv8(padded, y8);
        std::memcpy(y_plane + at, y8, n);
        ZeroChromaFrom(n, &c[r]);
      }
      // Samples per cell; lanes past a partial step's last cell hold 1.
      float partial_count[8];
      const float* count = full_count;
      if (n < 8) {
        for (int i = 0; i < 8; ++i) {
          partial_count[i] = static_cast<float>(
              nrows * std::clamp(n - (i << x_shift), 1, 1 << x_shift));
        }
        count = partial_count;
      }
      const size_t at = static_cast<size_t>(cy) * cw + (col >> x_shift);
      const int cells = ((n - 1) >> x_shift) + 1;
      for (int p = 0; p < 2; ++p) {
        F32x4 sum[2];
        SumCells(c, nrows, p, halved, sum);
        uint8_t tail[8];
        uint8_t* dst = n == 8 ? chroma_planes[p] + at : tail;
        for (int i = 0; 4 * i < cells; ++i) {
          const F32x4 mean = sum[i] / F32x4::Load(count + 4 * i);
          F32x4::Min(hi, F32x4::Max(lo, mean)).RoundStoreU8(dst + 4 * i);
        }
        if (n < 8) std::memcpy(chroma_planes[p] + at, tail, cells);
      }
    }
  }
  out.data = std::move(pixels_out);
  return out;
}

YuvRowsFn ActiveYuvRows() {
#if defined(TBM_SIMD_AVX2)
  static const YuvRowsFn rows = simd::HasAvx2() ? YuvRowsAvx2 : nullptr;
  return rows;
#else
  return nullptr;
#endif
}

Result<Image> YuvToRgbWith(const Image& yuv, YuvRowsFn rows) {
  TBM_RETURN_IF_ERROR(yuv.Validate());
  if (yuv.model != ColorModel::kYuv444 && yuv.model != ColorModel::kYuv422 &&
      yuv.model != ColorModel::kYuv420) {
    return Status::InvalidArgument("YuvToRgb expects a YUV image");
  }
  const int32_t w = yuv.width;
  const int32_t h = yuv.height;
  const int32_t cw = yuv.ChromaWidth();
  const int32_t ch = yuv.ChromaHeight();
  const uint8_t* y_plane = yuv.data.data();
  const uint8_t* u_plane = y_plane + static_cast<size_t>(w) * h;
  const uint8_t* v_plane = u_plane + static_cast<size_t>(cw) * ch;
  const int x_shift = (yuv.model == ColorModel::kYuv444) ? 0 : 1;
  const int y_shift = (yuv.model == ColorModel::kYuv420) ? 1 : 0;

  Bytes pixels_out(Image::ExpectedBytes(w, h, ColorModel::kRgb24));
  // One pass per chroma row: its terms are computed once per step and
  // serve the one or two luma rows of its cells.
  for (int32_t cy = 0; cy < ch; ++cy) {
    const int32_t row = cy << y_shift;
    const int nrows = std::min<int32_t>(1 << y_shift, h - row);
    const size_t chroma_row = static_cast<size_t>(cy) * cw;
    int32_t col = 0;
    if (rows != nullptr) {
      col = rows(y_plane + static_cast<size_t>(row) * w, w, nrows,
                 u_plane + chroma_row, v_plane + chroma_row, x_shift == 1,
                 pixels_out.data() + 3 * static_cast<size_t>(row) * w);
    }
    for (; col < w; col += 8) {
      const int n = std::min<int32_t>(8, w - col);
      const uint8_t* us = u_plane + chroma_row + (col >> x_shift);
      const uint8_t* vs = v_plane + chroma_row + (col >> x_shift);
      // A row's last, partial step converts zero-padded copies of its
      // samples, so every load stays inside the planes, and keeps the
      // first n pixels.
      uint8_t u8[8] = {}, v8[8] = {};
      if (n < 8) {
        const int chroma_n = ((n - 1) >> x_shift) + 1;
        std::memcpy(u8, us, chroma_n);
        std::memcpy(v8, vs, chroma_n);
        us = u8;
        vs = v8;
      }
      const ChromaTerms8 terms = LoadChromaTerms(us, vs, x_shift == 1);
      for (int r = 0; r < nrows; ++r) {
        const size_t at = static_cast<size_t>(row + r) * w + col;
        const uint8_t* ys = y_plane + at;
        uint8_t* px = pixels_out.data() + 3 * at;
        uint8_t y8[8] = {}, rgb[24];
        if (n < 8) {
          std::memcpy(y8, ys, n);
          ys = y8;
          px = rgb;
        }
        YuvToRgb8(ys, terms, px);
        if (n < 8) {
          std::memcpy(pixels_out.data() + 3 * at, rgb,
                      3 * static_cast<size_t>(n));
        }
      }
    }
  }
  return Image{w, h, ColorModel::kRgb24, std::move(pixels_out)};
}

}  // namespace color_internal

Result<Image> RgbToYuv(const Image& rgb, ColorModel target) {
  return color_internal::RgbToYuvWith(rgb, target,
                                      color_internal::ActiveCells420());
}

Result<Image> YuvToRgb(const Image& yuv) {
  return color_internal::YuvToRgbWith(yuv, color_internal::ActiveYuvRows());
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

Status SeparationParams::Validate() const {
  if (!(black_generation >= 0.0 && black_generation <= 1.0) ||
      !(under_color_removal >= 0.0 && under_color_removal <= 1.0)) {
    return Status::InvalidArgument("separation parameters must be in [0,1]");
  }
  return Status::OK();
}

Result<Image> RgbToCmyk(const Image& rgb, const SeparationParams& params) {
  TBM_RETURN_IF_ERROR(rgb.Validate());
  if (rgb.model != ColorModel::kRgb24) {
    return Status::InvalidArgument("RgbToCmyk expects an RGB image");
  }
  TBM_RETURN_IF_ERROR(params.Validate());
  Image out{rgb.width, rgb.height, ColorModel::kCmyk32, {}};
  Bytes pixels_out(Image::ExpectedBytes(out.width, out.height, out.model));
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
  Image out{cmyk.width, cmyk.height, ColorModel::kRgb24, {}};
  Bytes pixels_out(Image::ExpectedBytes(out.width, out.height, out.model));
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
  Image out{cmyk.width, cmyk.height, ColorModel::kGray8, {}};
  Bytes pixels_out(Image::ExpectedBytes(out.width, out.height, out.model));
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
  Image out{rgb.width, rgb.height, ColorModel::kGray8, {}};
  Bytes pixels_out(Image::ExpectedBytes(out.width, out.height, out.model));
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
