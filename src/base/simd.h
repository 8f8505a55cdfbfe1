#ifndef TBM_BASE_SIMD_H_
#define TBM_BASE_SIMD_H_

/// Portable SIMD layer for the pixel/sample kernels that dominate the
/// codec and derivation hot paths (TJPEG DCT/quantize, RGB↔YUV, image
/// filters, level shifts).
///
/// Kernels are written once against the wrapper types below; the
/// backend is selected at compile time:
///
///   - TBM_SIMD_DISABLED (cmake -DTBM_SIMD_DISABLED=ON)  → scalar
///   - __SSE2__ / x86-64                                 → SSE2
///   - __ARM_NEON                                        → NEON
///   - anything else                                     → scalar
///
/// On x86 with GCC or Clang (TBM_SIMD_AVX2) the four codec kernels
/// that dominate a TJPEG encode or decode also have an eight-lane AVX2
/// version written against F32x8 and the byte helpers below it:
/// RgbToYuv (4:2:0 row pairs) and the forward DCT on ingest, the
/// inverse DCT and YuvToRgb on expansion. Each is picked once at run
/// time when HasAvx2(). It does the same IEEE operations per lane in
/// the same order, so it is bit-identical to the F32x4 kernel, which
/// stays the reference and the path of every other build. This header
/// (and base/sha256.cc's SHA-NI rounds) hold every vector intrinsic in
/// src/; tools/check_includes.sh keeps it that way.
///
/// Determinism contract: every operation exposed here is either exact
/// integer arithmetic or an IEEE-754 single-precision operation
/// (+, -, *, /, min, max, round-to-nearest-even) applied per lane in a
/// fixed order, with no FMA contraction (the build sets
/// -ffp-contract=off). All three backends are written to produce
/// bit-identical results — the scalar-fallback CI job runs the full
/// test suite against the same expectations as the SSE2 builds. No ARM
/// build has compiled the NEON branches of ZipLo/ZipHi and
/// RoundStoreRgb8 yet, so their bit identity is unchecked until one
/// runs ColorTest.* and TjpegGoldenTest.*.
/// Float rounding uses round-to-nearest-even (SSE2 cvtps, NEON vcvtn,
/// scalar nearbyintf under the default rounding mode), except in
/// ClampRoundStoreI16x8, which rounds half away from zero everywhere.
/// Loads, shuffles (Evens/Odds, ZipLo/ZipHi, DeinterleaveRgb8) and
/// integer conversions move values without changing them.

#if !defined(TBM_SIMD_DISABLED)
#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define TBM_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define TBM_SIMD_NEON 1
#endif
#endif

// AVX2 kernels are compiled per function (target("avx2")), never with
// -mavx2 for a whole file, and run only where HasAvx2() says so.
#if defined(TBM_SIMD_SSE2) && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GNUC__)
#define TBM_SIMD_AVX2 1
#endif

#if defined(TBM_SIMD_SSE2)
#include <emmintrin.h>
#elif defined(TBM_SIMD_NEON)
#include <arm_neon.h>
#endif
#if defined(TBM_SIMD_AVX2)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tbm::simd {

/// True when this build has the AVX2 kernels and the CPU can run them:
/// it reports AVX2 and the OS saves YMM state. Asked of the CPU once.
inline bool HasAvx2() {
#if defined(TBM_SIMD_AVX2)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// Names of the kernels that run, for bench and stats output: the
/// backend below, plus "+avx2" where the AVX2 kernels (RgbToYuv and the
/// forward DCT, the inverse DCT and YuvToRgb) replace their four-lane
/// versions.
inline const char* IsaName() {
#if defined(TBM_SIMD_SSE2)
  return HasAvx2() ? "sse2+avx2" : "sse2";
#elif defined(TBM_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

constexpr bool Enabled() {
#if defined(TBM_SIMD_SSE2) || defined(TBM_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// F32x4: four packed single-precision floats

#if defined(TBM_SIMD_SSE2)

struct F32x4 {
  __m128 v;

  static F32x4 Zero() { return {_mm_setzero_ps()}; }
  static F32x4 Splat(float x) { return {_mm_set1_ps(x)}; }
  static F32x4 Load(const float* p) { return {_mm_loadu_ps(p)}; }
  /// Lanes p[0], p[1], p[2], p[3].
  static F32x4 FromU8(const uint8_t* p) {
    int32_t bits;
    std::memcpy(&bits, p, 4);
    return FromU8Lanes(_mm_cvtsi32_si128(bits));
  }
  /// Lanes p[0], p[1], p[2], p[3].
  static F32x4 FromI16(const int16_t* p) {
    __m128i x = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return {_mm_cvtepi32_ps(_mm_srai_epi32(_mm_unpacklo_epi16(x, x), 16))};
  }
  /// Lanes a0, a2, b0, b2 and a1, a3, b1, b3: the even and odd lanes of
  /// the eight-lane sequence a, b.
  static F32x4 Evens(F32x4 a, F32x4 b) {
    return {_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(2, 0, 2, 0))};
  }
  static F32x4 Odds(F32x4 a, F32x4 b) {
    return {_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(3, 1, 3, 1))};
  }
  /// Lanes a0, b0, a1, b1 and a2, b2, a3, b3: the low and high halves
  /// of the eight-lane interleave of a and b.
  static F32x4 ZipLo(F32x4 a, F32x4 b) { return {_mm_unpacklo_ps(a.v, b.v)}; }
  static F32x4 ZipHi(F32x4 a, F32x4 b) { return {_mm_unpackhi_ps(a.v, b.v)}; }
  void Store(float* p) const { _mm_storeu_ps(p, v); }
  /// Rounds each lane to the nearest integer (ties to even) and stores
  /// four int32 lanes.
  void RoundStoreI32(int32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm_cvtps_epi32(v));
  }
  /// Rounds each lane to the nearest integer (ties to even) and stores
  /// four bytes. Lanes must already lie in [0, 255].
  void RoundStoreU8(uint8_t* p) const {
    __m128i i = _mm_cvtps_epi32(v);
    i = _mm_packs_epi32(i, i);
    const int32_t bits = _mm_cvtsi128_si32(_mm_packus_epi16(i, i));
    std::memcpy(p, &bits, 4);
  }
  friend F32x4 operator+(F32x4 a, F32x4 b) { return {_mm_add_ps(a.v, b.v)}; }
  friend F32x4 operator-(F32x4 a, F32x4 b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend F32x4 operator*(F32x4 a, F32x4 b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend F32x4 operator/(F32x4 a, F32x4 b) { return {_mm_div_ps(a.v, b.v)}; }
  static F32x4 Min(F32x4 a, F32x4 b) { return {_mm_min_ps(a.v, b.v)}; }
  static F32x4 Max(F32x4 a, F32x4 b) { return {_mm_max_ps(a.v, b.v)}; }

 private:
  static F32x4 FromU8Lanes(__m128i b) {
    const __m128i zero = _mm_setzero_si128();
    return {_mm_cvtepi32_ps(
        _mm_unpacklo_epi16(_mm_unpacklo_epi8(b, zero), zero))};
  }
};

#elif defined(TBM_SIMD_NEON)

struct F32x4 {
  float32x4_t v;

  static F32x4 Zero() { return {vdupq_n_f32(0.0f)}; }
  static F32x4 Splat(float x) { return {vdupq_n_f32(x)}; }
  static F32x4 Load(const float* p) { return {vld1q_f32(p)}; }
  static F32x4 FromU8(const uint8_t* p) {
    uint32_t bits;
    std::memcpy(&bits, p, 4);
    return FromU8Lanes(bits);
  }
  static F32x4 FromI16(const int16_t* p) {
    return {vcvtq_f32_s32(vmovl_s16(vld1_s16(p)))};
  }
  static F32x4 Evens(F32x4 a, F32x4 b) {
    return {vuzpq_f32(a.v, b.v).val[0]};
  }
  static F32x4 Odds(F32x4 a, F32x4 b) {
    return {vuzpq_f32(a.v, b.v).val[1]};
  }
  // ZipLo/ZipHi: never compiled; untested until an ARM build runs them.
  static F32x4 ZipLo(F32x4 a, F32x4 b) { return {vzipq_f32(a.v, b.v).val[0]}; }
  static F32x4 ZipHi(F32x4 a, F32x4 b) { return {vzipq_f32(a.v, b.v).val[1]}; }
  void Store(float* p) const { vst1q_f32(p, v); }
  void RoundStoreI32(int32_t* p) const { vst1q_s32(p, vcvtnq_s32_f32(v)); }
  void RoundStoreU8(uint8_t* p) const {
    uint16x4_t h = vqmovun_s32(vcvtnq_s32_f32(v));
    uint8x8_t b = vqmovn_u16(vcombine_u16(h, h));
    const uint32_t bits = vget_lane_u32(vreinterpret_u32_u8(b), 0);
    std::memcpy(p, &bits, 4);
  }
  friend F32x4 operator+(F32x4 a, F32x4 b) { return {vaddq_f32(a.v, b.v)}; }
  friend F32x4 operator-(F32x4 a, F32x4 b) { return {vsubq_f32(a.v, b.v)}; }
  friend F32x4 operator*(F32x4 a, F32x4 b) { return {vmulq_f32(a.v, b.v)}; }
  friend F32x4 operator/(F32x4 a, F32x4 b) { return {vdivq_f32(a.v, b.v)}; }
  static F32x4 Min(F32x4 a, F32x4 b) { return {vminq_f32(a.v, b.v)}; }
  static F32x4 Max(F32x4 a, F32x4 b) { return {vmaxq_f32(a.v, b.v)}; }

 private:
  static F32x4 FromU8Lanes(uint32_t bits) {
    uint16x8_t wide = vmovl_u8(vcreate_u8(bits));
    return {vcvtq_f32_u32(vmovl_u16(vget_low_u16(wide)))};
  }
};

#else  // scalar fallback

struct F32x4 {
  float v[4];

  static F32x4 Zero() { return {{0.0f, 0.0f, 0.0f, 0.0f}}; }
  static F32x4 Splat(float x) { return {{x, x, x, x}}; }
  static F32x4 Load(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static F32x4 FromU8(const uint8_t* p) {
    return {{static_cast<float>(p[0]), static_cast<float>(p[1]),
             static_cast<float>(p[2]), static_cast<float>(p[3])}};
  }
  static F32x4 FromI16(const int16_t* p) {
    return {{static_cast<float>(p[0]), static_cast<float>(p[1]),
             static_cast<float>(p[2]), static_cast<float>(p[3])}};
  }
  static F32x4 Evens(F32x4 a, F32x4 b) {
    return {{a.v[0], a.v[2], b.v[0], b.v[2]}};
  }
  static F32x4 Odds(F32x4 a, F32x4 b) {
    return {{a.v[1], a.v[3], b.v[1], b.v[3]}};
  }
  static F32x4 ZipLo(F32x4 a, F32x4 b) {
    return {{a.v[0], b.v[0], a.v[1], b.v[1]}};
  }
  static F32x4 ZipHi(F32x4 a, F32x4 b) {
    return {{a.v[2], b.v[2], a.v[3], b.v[3]}};
  }
  void Store(float* p) const { std::memcpy(p, v, sizeof(v)); }
  void RoundStoreI32(int32_t* p) const {
    for (int i = 0; i < 4; ++i) {
      p[i] = static_cast<int32_t>(std::nearbyintf(v[i]));
    }
  }
  void RoundStoreU8(uint8_t* p) const {
    for (int i = 0; i < 4; ++i) {
      p[i] = static_cast<uint8_t>(std::nearbyintf(v[i]));
    }
  }
  friend F32x4 operator+(F32x4 a, F32x4 b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3]}};
  }
  friend F32x4 operator-(F32x4 a, F32x4 b) {
    return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
             a.v[3] - b.v[3]}};
  }
  friend F32x4 operator*(F32x4 a, F32x4 b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
             a.v[3] * b.v[3]}};
  }
  friend F32x4 operator/(F32x4 a, F32x4 b) {
    return {{a.v[0] / b.v[0], a.v[1] / b.v[1], a.v[2] / b.v[2],
             a.v[3] / b.v[3]}};
  }
  static F32x4 Min(F32x4 a, F32x4 b) {
    return {{a.v[0] < b.v[0] ? a.v[0] : b.v[0],
             a.v[1] < b.v[1] ? a.v[1] : b.v[1],
             a.v[2] < b.v[2] ? a.v[2] : b.v[2],
             a.v[3] < b.v[3] ? a.v[3] : b.v[3]}};
  }
  static F32x4 Max(F32x4 a, F32x4 b) {
    return {{a.v[0] > b.v[0] ? a.v[0] : b.v[0],
             a.v[1] > b.v[1] ? a.v[1] : b.v[1],
             a.v[2] > b.v[2] ? a.v[2] : b.v[2],
             a.v[3] > b.v[3] ? a.v[3] : b.v[3]}};
  }
};

#endif

/// Loads eight interleaved RGB pixels (24 bytes) as float lanes:
/// r[0] holds the red of pixels 0-3, r[1] of pixels 4-7, and likewise
/// g and b. Byte to float is exact, so every backend agrees.
inline void DeinterleaveRgb8(const uint8_t* p, F32x4 r[2], F32x4 g[2],
                             F32x4 b[2]) {
#if defined(TBM_SIMD_SSE2)
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i hi = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + 16));
  const __m128i w[3] = {_mm_unpacklo_epi8(lo, zero),
                        _mm_unpackhi_epi8(lo, zero),
                        _mm_unpacklo_epi8(hi, zero)};
  __m128 f[6];
  for (int i = 0; i < 3; ++i) {
    f[2 * i] = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w[i], zero));
    f[2 * i + 1] = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w[i], zero));
  }
  for (int i = 0; i < 2; ++i) {
    // x = r0 g0 b0 r1, y = g1 b1 r2 g2, z = b2 r3 g3 b3.
    const __m128 x = f[3 * i], y = f[3 * i + 1], z = f[3 * i + 2];
    __m128 t = _mm_shuffle_ps(y, z, _MM_SHUFFLE(1, 1, 2, 2));
    r[i].v = _mm_shuffle_ps(x, t, _MM_SHUFFLE(2, 0, 3, 0));
    t = _mm_shuffle_ps(x, y, _MM_SHUFFLE(0, 0, 1, 1));
    __m128 u = _mm_shuffle_ps(y, z, _MM_SHUFFLE(2, 2, 3, 3));
    g[i].v = _mm_shuffle_ps(t, u, _MM_SHUFFLE(2, 0, 2, 0));
    t = _mm_shuffle_ps(x, y, _MM_SHUFFLE(1, 1, 2, 2));
    u = _mm_shuffle_ps(z, z, _MM_SHUFFLE(3, 3, 0, 0));
    b[i].v = _mm_shuffle_ps(t, u, _MM_SHUFFLE(2, 0, 2, 0));
  }
#elif defined(TBM_SIMD_NEON)
  const uint8x8x3_t px = vld3_u8(p);
  F32x4* out[3] = {r, g, b};
  for (int c = 0; c < 3; ++c) {
    const uint16x8_t wide = vmovl_u8(px.val[c]);
    out[c][0].v = vcvtq_f32_u32(vmovl_u16(vget_low_u16(wide)));
    out[c][1].v = vcvtq_f32_u32(vmovl_u16(vget_high_u16(wide)));
  }
#else
  for (int i = 0; i < 8; ++i) {
    r[i / 4].v[i % 4] = static_cast<float>(p[3 * i]);
    g[i / 4].v[i % 4] = static_cast<float>(p[3 * i + 1]);
    b[i / 4].v[i % 4] = static_cast<float>(p[3 * i + 2]);
  }
#endif
}

/// Stores eight pixels as 24 interleaved RGB bytes: r[0] holds the red
/// of pixels 0-3, r[1] of pixels 4-7, and likewise g and b. Each lane
/// is rounded to the nearest integer (ties to even) and saturated to
/// [0, 255], which equals clamping to [0, 255] and then rounding for
/// every lane of magnitude below 2^31.
inline void RoundStoreRgb8(const F32x4 r[2], const F32x4 g[2],
                           const F32x4 b[2], uint8_t* p) {
#if defined(TBM_SIMD_SSE2)
  auto words = [](const F32x4 x[2]) {
    return _mm_packs_epi32(_mm_cvtps_epi32(x[0].v), _mm_cvtps_epi32(x[1].v));
  };
  const __m128i zero = _mm_setzero_si128();
  // rg = r0..r7 g0..g7 and bb = b0..b7 twice, as saturated bytes.
  const __m128i rg = _mm_packus_epi16(words(r), words(g));
  const __m128i bb = _mm_packus_epi16(words(b), words(b));
  // Pixel i as one 32-bit lane: bytes r_i, g_i, b_i, 0.
  const __m128i pairs = _mm_unpacklo_epi8(rg, _mm_srli_si128(rg, 8));
  const __m128i blue = _mm_unpacklo_epi8(bb, zero);
  __m128i px[2] = {_mm_unpacklo_epi16(pairs, blue),
                   _mm_unpackhi_epi16(pairs, blue)};
  const __m128i low_pixel = _mm_set_epi32(0, -1, 0, -1);
  for (__m128i& x : px) {
    // Close the zero byte between the two pixels of each 64-bit half,
    // then the two zero bytes between the halves: 12 bytes, low first.
    x = _mm_or_si128(_mm_and_si128(x, low_pixel),
                     _mm_srli_epi64(_mm_andnot_si128(low_pixel, x), 8));
    x = _mm_or_si128(_mm_move_epi64(x),
                     _mm_srli_si128(_mm_unpackhi_epi64(zero, x), 2));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm_or_si128(px[0], _mm_slli_si128(px[1], 12)));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p + 16),
                   _mm_srli_si128(px[1], 4));
#elif defined(TBM_SIMD_NEON)
  // Never compiled: untested until an ARM build runs ColorTest.*.
  auto bytes = [](const F32x4 x[2]) {
    return vqmovn_u16(vcombine_u16(vqmovun_s32(vcvtnq_s32_f32(x[0].v)),
                                   vqmovun_s32(vcvtnq_s32_f32(x[1].v))));
  };
  vst3_u8(p, uint8x8x3_t{{bytes(r), bytes(g), bytes(b)}});
#else
  const F32x4* planes[3] = {r, g, b};
  for (int i = 0; i < 8; ++i) {
    for (int c = 0; c < 3; ++c) {
      p[3 * i + c] = static_cast<uint8_t>(
          std::clamp(std::nearbyintf(planes[c][i / 4].v[i % 4]), 0.0f, 255.0f));
    }
  }
#endif
}

/// Bit i of the result is set when p[i] != 0, for i in 0..3.
inline uint32_t NonzeroLanesI32x4(const int32_t* p) {
#if defined(TBM_SIMD_SSE2)
  const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i zero = _mm_cmpeq_epi32(x, _mm_setzero_si128());
  return ~static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(zero))) &
         0xFu;
#elif defined(TBM_SIMD_NEON)
  const int32x4_t x = vld1q_s32(p);
  const uint32x4_t weights = {1, 2, 4, 8};
  return vaddvq_u32(vandq_u32(vtstq_s32(x, x), weights));
#else
  uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) bits |= (p[i] != 0 ? 1u : 0u) << i;
  return bits;
#endif
}

/// Sum of absolute differences between `rows` rows of 16 bytes at `a`
/// and at `b`, each row `stride` bytes after the last.
inline uint32_t SadU8x16(const uint8_t* a, const uint8_t* b, size_t stride,
                         int rows) {
#if defined(TBM_SIMD_SSE2)
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < rows; ++y, a += stride, b += stride) {
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)),
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(b))));
  }
  acc = _mm_add_epi64(acc, _mm_srli_si128(acc, 8));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(acc));
#elif defined(TBM_SIMD_NEON)
  uint32x4_t acc = vdupq_n_u32(0);
  for (int y = 0; y < rows; ++y, a += stride, b += stride) {
    const uint8x16_t va = vld1q_u8(a), vb = vld1q_u8(b);
    const uint16x8_t d = vabal_u8(vabdl_u8(vget_low_u8(va), vget_low_u8(vb)),
                                  vget_high_u8(va), vget_high_u8(vb));
    acc = vpadalq_u16(acc, d);
  }
  return vaddvq_u32(acc);
#else
  uint32_t sad = 0;
  for (int y = 0; y < rows; ++y, a += stride, b += stride) {
    for (int x = 0; x < 16; ++x) {
      sad += static_cast<uint32_t>(a[x] > b[x] ? a[x] - b[x] : b[x] - a[x]);
    }
  }
  return sad;
#endif
}

// ---------------------------------------------------------------------------
// Float → int16 store

/// out[i] = int16(std::lround(std::clamp(in[i], -32768.0f, 32767.0f)))
/// for i in 0..7: clamps, rounds half away from zero (not ties-to-even
/// like RoundStoreI32) and stores eight int16 lanes. The vector branches
/// truncate, take the fraction and step one away from zero where it
/// reaches ±0.5; that equals lround for every |x| < 2^23, which the
/// clamp guarantees. Inputs must not be NaN.
inline void ClampRoundStoreI16x8(const float* in, int16_t* out) {
#if defined(TBM_SIMD_SSE2)
  const __m128 lo = _mm_set1_ps(-32768.0f), hi = _mm_set1_ps(32767.0f);
  const __m128 half = _mm_set1_ps(0.5f), neg_half = _mm_set1_ps(-0.5f);
  __m128i lanes[2];
  for (int i = 0; i < 2; ++i) {
    __m128 x = _mm_min_ps(_mm_max_ps(_mm_loadu_ps(in + 4 * i), lo), hi);
    __m128i t = _mm_cvttps_epi32(x);
    __m128 frac = _mm_sub_ps(x, _mm_cvtepi32_ps(t));
    // A true compare lane is all ones, i.e. -1 as an int32.
    t = _mm_sub_epi32(t, _mm_castps_si128(_mm_cmpge_ps(frac, half)));
    lanes[i] =
        _mm_add_epi32(t, _mm_castps_si128(_mm_cmple_ps(frac, neg_half)));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_packs_epi32(lanes[0], lanes[1]));
#elif defined(TBM_SIMD_NEON)
  const float32x4_t lo = vdupq_n_f32(-32768.0f), hi = vdupq_n_f32(32767.0f);
  const float32x4_t half = vdupq_n_f32(0.5f), neg_half = vdupq_n_f32(-0.5f);
  int16x4_t lanes[2];
  for (int i = 0; i < 2; ++i) {
    float32x4_t x = vminq_f32(vmaxq_f32(vld1q_f32(in + 4 * i), lo), hi);
    int32x4_t t = vcvtq_s32_f32(x);
    float32x4_t frac = vsubq_f32(x, vcvtq_f32_s32(t));
    t = vsubq_s32(t, vreinterpretq_s32_u32(vcgeq_f32(frac, half)));
    t = vaddq_s32(t, vreinterpretq_s32_u32(vcleq_f32(frac, neg_half)));
    lanes[i] = vqmovn_s32(t);
  }
  vst1q_s16(out, vcombine_s16(lanes[0], lanes[1]));
#else
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<int16_t>(
        std::lround(std::clamp(in[i], -32768.0f, 32767.0f)));
  }
#endif
}

// ---------------------------------------------------------------------------
// Byte-array kernels (exact integer semantics on every backend)

/// out[i] = 255 - in[i]. In-place safe (out may equal in).
inline void InvertBytes(const uint8_t* in, uint8_t* out, size_t n) {
  size_t i = 0;
#if defined(TBM_SIMD_SSE2)
  const __m128i ones = _mm_set1_epi8(static_cast<char>(0xFF));
  for (; i + 16 <= n; i += 16) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_xor_si128(b, ones));
  }
#elif defined(TBM_SIMD_NEON)
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(out + i, vmvnq_u8(vld1q_u8(in + i)));
  }
#endif
  for (; i < n; ++i) out[i] = static_cast<uint8_t>(255 - in[i]);
}

/// out[i] = in[i] >= threshold ? 255 : 0. In-place safe.
inline void ThresholdBytes(const uint8_t* in, uint8_t* out, size_t n,
                           uint8_t threshold) {
  size_t i = 0;
#if defined(TBM_SIMD_SSE2)
  const __m128i t = _mm_set1_epi8(static_cast<char>(threshold));
  for (; i + 16 <= n; i += 16) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    // max(b, t) == b  ⇔  b >= t (unsigned); the compare mask is the
    // output value itself (0xFF / 0x00).
    __m128i mask = _mm_cmpeq_epi8(_mm_max_epu8(b, t), b);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), mask);
  }
#elif defined(TBM_SIMD_NEON)
  const uint8x16_t t = vdupq_n_u8(threshold);
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(out + i, vcgeq_u8(vld1q_u8(in + i), t));
  }
#endif
  for (; i < n; ++i) out[i] = in[i] >= threshold ? 255 : 0;
}

/// out[i] = int16(in[i]) - 128 (the TJPEG level shift).
inline void LevelShiftBytes(const uint8_t* in, int16_t* out, size_t n) {
  size_t i = 0;
#if defined(TBM_SIMD_SSE2)
  const __m128i zero = _mm_setzero_si128();
  const __m128i bias = _mm_set1_epi16(128);
  for (; i + 16 <= n; i += 16) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    __m128i lo = _mm_sub_epi16(_mm_unpacklo_epi8(b, zero), bias);
    __m128i hi = _mm_sub_epi16(_mm_unpackhi_epi8(b, zero), bias);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8), hi);
  }
#elif defined(TBM_SIMD_NEON)
  const int16x8_t bias = vdupq_n_s16(128);
  for (; i + 16 <= n; i += 16) {
    uint8x16_t b = vld1q_u8(in + i);
    vst1q_s16(out + i,
              vsubq_s16(vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(b))),
                        bias));
    vst1q_s16(out + i + 8,
              vsubq_s16(vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(b))),
                        bias));
  }
#endif
  for (; i < n; ++i) out[i] = static_cast<int16_t>(in[i]) - 128;
}

/// out[i] = clamp(in[i] + 128, 0, 255) (the TJPEG level unshift). The
/// vector adds saturate, so an in[i] near INT16_MAX clamps to 255 as
/// the scalar loop does instead of wrapping negative.
inline void LevelUnshiftBytes(const int16_t* in, uint8_t* out, size_t n) {
  size_t i = 0;
#if defined(TBM_SIMD_SSE2)
  const __m128i bias = _mm_set1_epi16(128);
  for (; i + 16 <= n; i += 16) {
    __m128i lo = _mm_adds_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)), bias);
    __m128i hi = _mm_adds_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i + 8)), bias);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(lo, hi));
  }
#elif defined(TBM_SIMD_NEON)
  const int16x8_t bias = vdupq_n_s16(128);
  for (; i + 16 <= n; i += 16) {
    uint8x8_t lo = vqmovun_s16(vqaddq_s16(vld1q_s16(in + i), bias));
    uint8x8_t hi = vqmovun_s16(vqaddq_s16(vld1q_s16(in + i + 8), bias));
    vst1q_u8(out + i, vcombine_u8(lo, hi));
  }
#endif
  for (; i < n; ++i) {
    int v = static_cast<int>(in[i]) + 128;
    out[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

// ---------------------------------------------------------------------------
// F32x8: eight packed single-precision floats (AVX2 builds only)
//
// A kernel that uses them is one TBM_SIMD_AVX2_TARGET function, run
// only when HasAvx2(). Every member and helper below is force-inlined
// into it: a call from a function without the avx2 target fails to
// compile ("inlining failed … target specific option mismatch"), so no
// YMM value ever crosses a non-AVX call boundary. A lambda or template
// that a kernel calls needs the target too. The per-lane semantics are
// F32x4's: IEEE single-precision operations, cvtps rounding ties to
// even, byte conversions exact.

#if defined(TBM_SIMD_AVX2)

#define TBM_SIMD_AVX2_TARGET __attribute__((target("avx2")))
#define TBM_SIMD_AVX2_INLINE \
  [[gnu::always_inline]] inline __attribute__((target("avx2")))

struct F32x8 {
  __m256 v;

  TBM_SIMD_AVX2_INLINE static F32x8 Zero() { return {_mm256_setzero_ps()}; }
  TBM_SIMD_AVX2_INLINE static F32x8 Splat(float x) {
    return {_mm256_set1_ps(x)};
  }
  TBM_SIMD_AVX2_INLINE static F32x8 Load(const float* p) {
    return {_mm256_loadu_ps(p)};
  }
  /// Lanes p[0], …, p[7].
  TBM_SIMD_AVX2_INLINE static F32x8 FromU8(const uint8_t* p) {
    return {_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))))};
  }
  /// Lanes a0, a0, a1, a1, a2, a2, a3, a3 and a4, a4, …, a7, a7: each
  /// value of a half twice, as F32x4::ZipLo/ZipHi(a, a) give.
  TBM_SIMD_AVX2_INLINE static F32x8 RepeatLo(F32x8 a) {
    return {_mm256_permutevar8x32_ps(
        a.v, _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3))};
  }
  TBM_SIMD_AVX2_INLINE static F32x8 RepeatHi(F32x8 a) {
    return {_mm256_permutevar8x32_ps(
        a.v, _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7))};
  }
  TBM_SIMD_AVX2_INLINE void Store(float* p) const { _mm256_storeu_ps(p, v); }
  TBM_SIMD_AVX2_INLINE friend F32x8 operator+(F32x8 a, F32x8 b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  TBM_SIMD_AVX2_INLINE friend F32x8 operator-(F32x8 a, F32x8 b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  TBM_SIMD_AVX2_INLINE friend F32x8 operator*(F32x8 a, F32x8 b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  TBM_SIMD_AVX2_INLINE friend F32x8 operator/(F32x8 a, F32x8 b) {
    return {_mm256_div_ps(a.v, b.v)};
  }
  TBM_SIMD_AVX2_INLINE static F32x8 Min(F32x8 a, F32x8 b) {
    return {_mm256_min_ps(a.v, b.v)};
  }
  TBM_SIMD_AVX2_INLINE static F32x8 Max(F32x8 a, F32x8 b) {
    return {_mm256_max_ps(a.v, b.v)};
  }
};

namespace avx2_internal {

// pshufb masks between 16 interleaved RGB pixels (48 bytes, three
// 16-byte thirds) and their channels. kGather[c][t] takes channel c's
// bytes found in third t, the even pixels 0, 2, …, 14 to bytes 0-7 and
// the odd pixels to bytes 8-15. kScatter[t][c] places channel c's bytes
// of pixels 0-15, in order, where third t holds them. -1 zeroes a byte
// that comes from elsewhere, so each result is an OR of three shuffles.
struct RgbShuffles {
  alignas(16) int8_t gather[3][3][16];
  alignas(16) int8_t scatter[3][3][16];
  constexpr RgbShuffles() : gather(), scatter() {
    for (int c = 0; c < 3; ++c) {
      for (int t = 0; t < 3; ++t) {
        for (int j = 0; j < 16; ++j) {
          const int pixel = j < 8 ? 2 * j : 2 * (j - 8) + 1;
          const int at = 3 * pixel + c;
          gather[c][t][j] = static_cast<int8_t>(at / 16 == t ? at % 16 : -1);
          const int byte = 16 * t + j;
          scatter[t][c][j] = static_cast<int8_t>(byte % 3 == c ? byte / 3 : -1);
        }
      }
    }
  }
};
inline constexpr RgbShuffles kRgbShuffles;

TBM_SIMD_AVX2_INLINE __m128i LoadMask(const int8_t mask[16]) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(mask));
}

}  // namespace avx2_internal

/// Two rows of 16 interleaved RGB pixels, regrouped by channel and by
/// even and odd pixel, still as bytes.
class Rgb16x2 {
 public:
  /// Reads 48 bytes at `p` (row 0) and 48 at `p + stride` (row 1).
  TBM_SIMD_AVX2_INLINE static Rgb16x2 Load(const uint8_t* p, size_t stride) {
    const auto& gather = avx2_internal::kRgbShuffles.gather;
    // Third t of both rows: row 0 in the low half, row 1 in the high.
    __m256i third[3];
#pragma GCC unroll 3
    for (int t = 0; t < 3; ++t) {
      third[t] = _mm256_inserti128_si256(
          _mm256_castsi128_si256(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p + 16 * t))),
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p + stride + 16 * t)),
          1);
    }
    Rgb16x2 px;
#pragma GCC unroll 3
    for (int c = 0; c < 3; ++c) {
      __m256i mask[3];
#pragma GCC unroll 3
      for (int t = 0; t < 3; ++t) {
        mask[t] = _mm256_broadcastsi128_si256(
            avx2_internal::LoadMask(gather[c][t]));
      }
      px.channel_[c] = _mm256_or_si256(
          _mm256_or_si256(_mm256_shuffle_epi8(third[0], mask[0]),
                          _mm256_shuffle_epi8(third[1], mask[1])),
          _mm256_shuffle_epi8(third[2], mask[2]));
    }
    return px;
  }

  /// Channel c (0 red, 1 green, 2 blue) of row `row`'s even pixels
  /// 0, 2, …, 14, or of its odd pixels 1, 3, …, 15, as floats.
  TBM_SIMD_AVX2_INLINE F32x8 Lanes(int c, int row, bool odd) const {
    const __m128i half = row == 0 ? _mm256_castsi256_si128(channel_[c])
                                   : _mm256_extracti128_si256(channel_[c], 1);
    return {_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        odd ? _mm_unpackhi_epi64(half, half) : half))};
  }

 private:
  // Channel c: row 0's even pixels in bytes 0-7, its odd pixels in
  // bytes 8-15, row 1's in bytes 16-31.
  __m256i channel_[3];
};

/// Rounds two rows of 16 lanes to the nearest integer (ties to even)
/// and stores them as 16 bytes at `row0` and at `row1`. even[r] holds
/// row r's pixels 0, 2, …, 14 and odd[r] its pixels 1, 3, …, 15. Lanes
/// must already lie in [0, 255].
TBM_SIMD_AVX2_INLINE void RoundStoreEvenOddU8x16(const F32x8 even[2],
                                                 const F32x8 odd[2],
                                                 uint8_t* row0,
                                                 uint8_t* row1) {
  // Bytes e0 o0 e1 o1 … of the even and odd lanes packed in each half.
  const __m256i interleave = _mm256_setr_epi8(
      0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15,  //
      0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15);
  // Dwords e0-3, o0-3 of row 0 then row 1 in the low half, e4-7, o4-7
  // in the high half; interleaved, then rows regrouped.
  const __m256i bytes = _mm256_permute4x64_epi64(
      _mm256_shuffle_epi8(
          _mm256_packus_epi16(
              _mm256_packs_epi32(_mm256_cvtps_epi32(even[0].v),
                                 _mm256_cvtps_epi32(odd[0].v)),
              _mm256_packs_epi32(_mm256_cvtps_epi32(even[1].v),
                                 _mm256_cvtps_epi32(odd[1].v))),
          interleave),
      _MM_SHUFFLE(3, 1, 2, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(row0),
                   _mm256_castsi256_si128(bytes));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(row1),
                   _mm256_extracti128_si256(bytes, 1));
}

/// Rounds the lanes of `a` and of `b` to the nearest integer (ties to
/// even) and stores them as eight bytes at `pa` and at `pb`. Lanes must
/// already lie in [0, 255].
TBM_SIMD_AVX2_INLINE void RoundStoreU8x8x2(F32x8 a, F32x8 b, uint8_t* pa,
                                           uint8_t* pb) {
  // Dwords a0-3, b0-3 | a4-7, b4-7, reordered to a0-7 b0-7.
  const __m256i words =
      _mm256_packs_epi32(_mm256_cvtps_epi32(a.v), _mm256_cvtps_epi32(b.v));
  const __m128i bytes = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      _mm256_packus_epi16(words, words),
      _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7)));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(pa), bytes);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(pb),
                   _mm_unpackhi_epi64(bytes, bytes));
}

/// RoundStoreRgb8 for sixteen pixels: stores 48 interleaved RGB bytes.
/// r[0] holds the red of pixels 0-7, r[1] of pixels 8-15, and likewise
/// g and b. Each lane is rounded to the nearest integer (ties to even)
/// and saturated to [0, 255], as RoundStoreRgb8 does.
TBM_SIMD_AVX2_INLINE void RoundStoreRgb16(const F32x8 r[2], const F32x8 g[2],
                                          const F32x8 b[2], uint8_t* p) {
  // Each pack works per 128-bit half, so the dwords of four pixels
  // come out as 0-3, 8-11, (second channel) | 4-7, 12-15, (…); the
  // permutation puts them in order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256i rw = _mm256_packs_epi32(_mm256_cvtps_epi32(r[0].v),
                                        _mm256_cvtps_epi32(r[1].v));
  const __m256i gw = _mm256_packs_epi32(_mm256_cvtps_epi32(g[0].v),
                                        _mm256_cvtps_epi32(g[1].v));
  const __m256i bw = _mm256_packs_epi32(_mm256_cvtps_epi32(b[0].v),
                                        _mm256_cvtps_epi32(b[1].v));
  // Red of pixels 0-15 in the low half, green in the high half.
  const __m256i rg =
      _mm256_permutevar8x32_epi32(_mm256_packus_epi16(rw, gw), order);
  const __m128i channel[3] = {
      _mm256_castsi256_si128(rg), _mm256_extracti128_si256(rg, 1),
      _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_packus_epi16(bw, bw), order))};
  const auto& scatter = avx2_internal::kRgbShuffles.scatter;
#pragma GCC unroll 3
  for (int t = 0; t < 3; ++t) {
    __m128i bytes = _mm_setzero_si128();
#pragma GCC unroll 3
    for (int c = 0; c < 3; ++c) {
      bytes = _mm_or_si128(
          bytes, _mm_shuffle_epi8(channel[c],
                                  avx2_internal::LoadMask(scatter[t][c])));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 16 * t), bytes);
  }
}

#endif  // TBM_SIMD_AVX2

}  // namespace tbm::simd

#endif  // TBM_BASE_SIMD_H_
