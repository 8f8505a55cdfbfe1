#include "codec/dct.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/simd.h"

namespace tbm {

namespace {

// Precomputed cosine basis: cos_table[u][x] = c(u) * cos((2x+1)uπ/16)
// where c(0) = sqrt(1/8), c(u>0) = sqrt(2/8). cos_t is the transpose
// (cos_t[x][u] = cos_table[u][x]) so the vector passes can load four
// consecutive outputs' coefficients at once; cos_splat[u][x] holds
// cos_table[u][x] in all four lanes, so the forward column pass loads
// its factors instead of broadcasting one per multiply.
struct Basis {
  float cos_table[8][8];
  float cos_t[8][8];
  alignas(16) float cos_splat[8][8][4];
  Basis() {
    for (int u = 0; u < 8; ++u) {
      float c = (u == 0) ? std::sqrt(1.0f / 8.0f) : std::sqrt(2.0f / 8.0f);
      for (int x = 0; x < 8; ++x) {
        cos_table[u][x] =
            c * std::cos((2.0f * x + 1.0f) * u * static_cast<float>(M_PI) /
                         16.0f);
      }
    }
    for (int u = 0; u < 8; ++u) {
      for (int x = 0; x < 8; ++x) {
        cos_t[x][u] = cos_table[u][x];
        for (float& lane : cos_splat[u][x]) lane = cos_table[u][x];
      }
    }
  }
};

const Basis& GetBasis() {
  static const Basis kBasis;
  return kBasis;
}

}  // namespace

// Every pass accumulates four outputs per vector register (eight in the
// AVX2 kernels) while keeping the exact per-output summation order of
// the scalar reference (operands added in ascending index order,
// starting from +0, no FMA), so vector and scalar builds are
// bit-identical.

namespace dct_internal {

// Each step of either pass fills two rows of eight outputs: four
// independent accumulator chains, so the adders are not left waiting
// on one chain's latency, while every input and basis vector loaded in
// the step is used twice. Four rows per step would spill on the 16
// registers of SSE2.
void ForwardDct8x8FourLane(const float in[64], float out[64]) {
  using simd::F32x4;
  const auto& basis = GetBasis();
  const auto& bt = basis.cos_t;
  const auto& bs = basis.cos_splat;
  float tmp[64];
  // Rows: tmp[y*8+u] = Σ_x in[y*8+x] * b[u][x], rows y and y+1 at once.
  for (int y = 0; y < 8; y += 2) {
    F32x4 r0_lo = F32x4::Zero(), r0_hi = F32x4::Zero();
    F32x4 r1_lo = F32x4::Zero(), r1_hi = F32x4::Zero();
    for (int x = 0; x < 8; ++x) {
      const F32x4 b_lo = F32x4::Load(&bt[x][0]);
      const F32x4 b_hi = F32x4::Load(&bt[x][4]);
      const F32x4 p0 = F32x4::Splat(in[y * 8 + x]);
      const F32x4 p1 = F32x4::Splat(in[(y + 1) * 8 + x]);
      r0_lo = r0_lo + p0 * b_lo;
      r0_hi = r0_hi + p0 * b_hi;
      r1_lo = r1_lo + p1 * b_lo;
      r1_hi = r1_hi + p1 * b_hi;
    }
    r0_lo.Store(&tmp[y * 8]);
    r0_hi.Store(&tmp[y * 8 + 4]);
    r1_lo.Store(&tmp[(y + 1) * 8]);
    r1_hi.Store(&tmp[(y + 1) * 8 + 4]);
  }
  // Columns: out[v*8+u] = Σ_y tmp[y*8+u] * b[v][y], rows v and v+1 at
  // once. `in` is not read here, so `out` may alias it.
  for (int v = 0; v < 8; v += 2) {
    F32x4 r0_lo = F32x4::Zero(), r0_hi = F32x4::Zero();
    F32x4 r1_lo = F32x4::Zero(), r1_hi = F32x4::Zero();
    for (int y = 0; y < 8; ++y) {
      const F32x4 t_lo = F32x4::Load(&tmp[y * 8]);
      const F32x4 t_hi = F32x4::Load(&tmp[y * 8 + 4]);
      const F32x4 b0 = F32x4::Load(bs[v][y]);
      const F32x4 b1 = F32x4::Load(bs[v + 1][y]);
      r0_lo = r0_lo + t_lo * b0;
      r0_hi = r0_hi + t_hi * b0;
      r1_lo = r1_lo + t_lo * b1;
      r1_hi = r1_hi + t_hi * b1;
    }
    r0_lo.Store(&out[v * 8]);
    r0_hi.Store(&out[v * 8 + 4]);
    r1_lo.Store(&out[(v + 1) * 8]);
    r1_hi.Store(&out[(v + 1) * 8 + 4]);
  }
}

void InverseDct8x8FourLane(const float in[64], float out[64],
                           const DctMask& mask) {
  using simd::F32x4;
  const auto& b = GetBasis().cos_table;
  float tmp[64];
  // Columns: tmp[y*8+u] = Σ_v in[v*8+u] * b[v][y], four u at a time.
  // A half with no set row is all +0 and the row pass skips it.
  unsigned live_cols = mask.cols;
  for (int h = 0; h < 2; ++h) {
    const int u0 = 4 * h;
    if (mask.rows[h] == 0) {
      live_cols &= ~(0xFu << u0);
      continue;
    }
    for (int y = 0; y < 8; ++y) {
      F32x4 acc = F32x4::Zero();
      for (unsigned rows = mask.rows[h]; rows != 0; rows &= rows - 1) {
        const int v = std::countr_zero(rows);
        acc = acc + F32x4::Load(&in[v * 8 + u0]) * F32x4::Splat(b[v][y]);
      }
      acc.Store(&tmp[y * 8 + u0]);
    }
  }
  // Rows: out[y*8+x] = Σ_u tmp[y*8+u] * b[u][x], four x at a time.
  for (int y = 0; y < 8; ++y) {
    for (int x0 = 0; x0 < 8; x0 += 4) {
      F32x4 acc = F32x4::Zero();
      for (unsigned cols = live_cols; cols != 0; cols &= cols - 1) {
        const int u = std::countr_zero(cols);
        acc = acc + F32x4::Splat(tmp[y * 8 + u]) * F32x4::Load(&b[u][x0]);
      }
      acc.Store(&out[y * 8 + x0]);
    }
  }
}

namespace {

#if defined(TBM_SIMD_AVX2)

// ForwardDct8x8FourLane in eight lanes: one register holds a whole row
// of outputs. The row pass keeps all eight rows' chains in flight and
// leaves its result in registers for the column pass. Both outer loops
// stay rolled: fully unrolled, GCC computes the products ahead of
// their sums and spills them, which cost a quarter of the speed.
TBM_SIMD_AVX2_TARGET void ForwardDct8x8Avx2(const float in[64],
                                            float out[64]) {
  using simd::F32x8;
  const Basis& basis = GetBasis();
  // Rows: tmp[y] lane u = Σ_x in[y*8+x] * b[u][x].
  F32x8 tmp[8];
#pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) tmp[y] = F32x8::Zero();
#pragma GCC unroll 1
  for (int x = 0; x < 8; ++x) {
    const F32x8 b = F32x8::Load(basis.cos_t[x]);
#pragma GCC unroll 8
    for (int y = 0; y < 8; ++y) {
      tmp[y] = tmp[y] + F32x8::Splat(in[y * 8 + x]) * b;
    }
  }
  // Columns: out row v lane u = Σ_y tmp[y] lane u * b[v][y]. `in` is
  // not read here, so `out` may alias it.
#pragma GCC unroll 1
  for (int v = 0; v < 8; ++v) {
    F32x8 acc = F32x8::Zero();
#pragma GCC unroll 8
    for (int y = 0; y < 8; ++y) {
      acc = acc + tmp[y] * F32x8::Splat(basis.cos_table[v][y]);
    }
    acc.Store(&out[v * 8]);
  }
}

// InverseDct8x8FourLane in eight lanes: one register per output row in
// each pass, so eight accumulator chains are in flight.
//
// The column pass sums every row set in either half of the mask,
// mask.rows[0] | mask.rows[1], in ascending v, where the four-lane pass
// sums only its own half's rows. The extra rows hold zeros in the other
// half's columns (a clear bit promises them), so each extra product is
// ±0. A sum that starts at +0 is never -0: a sum of two values is -0
// only when both are -0, since an exact cancellation rounds to +0
// under round-to-nearest. Adding ±0 to a value that is not -0 returns
// it unchanged, so every partial sum, and every output, keeps the
// four-lane kernel's bits. The row pass runs the same live columns as
// the four-lane one, broadcasting each factor from `tmp`.
TBM_SIMD_AVX2_TARGET void InverseDct8x8Avx2(const float in[64], float out[64],
                                            const DctMask& mask) {
  using simd::F32x8;
  const auto& b = GetBasis().cos_table;
  // Columns: tmp row y lane u = Σ_v in[v*8+u] * b[v][y].
  F32x8 acc[8];
#pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) acc[y] = F32x8::Zero();
  for (unsigned rows = mask.rows[0] | mask.rows[1]; rows != 0;
       rows &= rows - 1) {
    const int v = std::countr_zero(rows);
    const F32x8 coeffs = F32x8::Load(&in[v * 8]);
#pragma GCC unroll 8
    for (int y = 0; y < 8; ++y) {
      acc[y] = acc[y] + coeffs * F32x8::Splat(b[v][y]);
    }
  }
  alignas(32) float tmp[64];
#pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) acc[y].Store(&tmp[y * 8]);
  // Rows: out row y lane x = Σ_u tmp[y*8+u] * b[u][x], over the live
  // columns of the halves that have a set row.
  unsigned live_cols = mask.cols;
  if (mask.rows[0] == 0) live_cols &= 0xF0u;
  if (mask.rows[1] == 0) live_cols &= 0x0Fu;
#pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) acc[y] = F32x8::Zero();
  for (unsigned cols = live_cols; cols != 0; cols &= cols - 1) {
    const int u = std::countr_zero(cols);
    const F32x8 basis = F32x8::Load(b[u]);
#pragma GCC unroll 8
    for (int y = 0; y < 8; ++y) {
      acc[y] = acc[y] + F32x8::Splat(tmp[y * 8 + u]) * basis;
    }
  }
#pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) acc[y].Store(&out[y * 8]);
}

#endif  // TBM_SIMD_AVX2

}  // namespace

ForwardDctFn ActiveForwardDct() {
#if defined(TBM_SIMD_AVX2)
  static const ForwardDctFn forward =
      simd::HasAvx2() ? ForwardDct8x8Avx2 : ForwardDct8x8FourLane;
  return forward;
#else
  return ForwardDct8x8FourLane;
#endif
}

InverseDctFn ActiveInverseDct() {
#if defined(TBM_SIMD_AVX2)
  static const InverseDctFn inverse =
      simd::HasAvx2() ? InverseDct8x8Avx2 : InverseDct8x8FourLane;
  return inverse;
#else
  return InverseDct8x8FourLane;
#endif
}

}  // namespace dct_internal

void ForwardDct8x8(const float in[64], float out[64]) {
  dct_internal::ActiveForwardDct()(in, out);
}

float InverseDctDc(float dc) {
  // InverseDct8x8 takes one product per pass on such a block, since
  // every basis value of frequency 0 is the same constant; the +0.0f
  // terms are the +0 its sums start from.
  const float k = GetBasis().cos_table[0][0];
  return 0.0f + (0.0f + dc * k) * k;
}

void InverseDct8x8(const float in[64], float out[64], const DctMask& mask) {
  dct_internal::ActiveInverseDct()(in, out, mask);
}

const std::array<uint16_t, 64> kLumaQuantBase = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

const std::array<uint16_t, 64> kChromaQuantBase = {
    17, 18, 24, 47, 99, 99, 99, 99,  //
    18, 21, 26, 66, 99, 99, 99, 99,  //
    24, 26, 56, 99, 99, 99, 99, 99,  //
    47, 66, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99};

std::array<uint16_t, 64> ScaleQuantTable(const std::array<uint16_t, 64>& base,
                                         int quality) {
  quality = std::clamp(quality, 1, 100);
  int scale = (quality < 50) ? 5000 / quality : 200 - 2 * quality;
  std::array<uint16_t, 64> out;
  for (int i = 0; i < 64; ++i) {
    int q = (base[i] * scale + 50) / 100;
    out[i] = static_cast<uint16_t>(std::clamp(q, 1, 255));
  }
  return out;
}

const std::array<uint8_t, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10,  //
    17, 24, 32, 25, 18, 11, 4,  5,   //
    12, 19, 26, 33, 40, 48, 41, 34,  //
    27, 20, 13, 6,  7,  14, 21, 28,  //
    35, 42, 49, 56, 57, 50, 43, 36,  //
    29, 22, 15, 23, 30, 37, 44, 51,  //
    58, 59, 52, 45, 38, 31, 39, 46,  //
    53, 60, 61, 54, 47, 55, 62, 63};

}  // namespace tbm
