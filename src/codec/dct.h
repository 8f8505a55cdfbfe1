#ifndef TBM_CODEC_DCT_H_
#define TBM_CODEC_DCT_H_

#include <array>
#include <cstdint>

namespace tbm {

/// 8×8 type-II DCT and its inverse, the transform core of the TJPEG
/// codec (the library's stand-in for the JPEG compression the paper's
/// Figure 2 example applies to PAL frames).

/// Forward 2-D DCT of an 8×8 block (row-major), orthonormal scaling.
/// Each output is its products summed in ascending index order from +0,
/// so every SIMD backend gives the same bits. `in` and `out` may alias.
void ForwardDct8x8(const float in[64], float out[64]);

/// Which coefficients of an 8×8 block (row-major) may be nonzero. Bit
/// v of rows[h] is set when row v holds a nonzero value in columns
/// 4h..4h+3; bit u of cols is set when column u holds one. A set bit
/// over zeros only costs time; a clear bit promises zeros.
struct DctMask {
  uint8_t rows[2] = {0, 0};
  uint8_t cols = 0;

  static constexpr DctMask All() { return {{0xFF, 0xFF}, 0xFF}; }

  void Set(int index) {
    rows[(index & 7) >> 2] |= static_cast<uint8_t>(1u << (index >> 3));
    cols |= static_cast<uint8_t>(1u << (index & 7));
  }
};

/// Inverse 2-D DCT of an 8×8 block. Only the rows and columns `mask`
/// marks are transformed, in ascending order, so every output equals
/// the dense transform's bit for bit: each skipped product is ±0, and
/// adding ±0 to a sum that started at +0 changes nothing.
void InverseDct8x8(const float in[64], float out[64], const DctMask& mask);

/// The one value every sample of an 8×8 block takes when its only
/// nonzero coefficient is the DC term `dc`: (+0 + dc·k)·k + +0 with
/// k = sqrt(1/8) as a float, the bits InverseDct8x8 gives such a block.
float InverseDctDc(float dc);

/// Standard JPEG Annex K luminance quantization table (row-major).
extern const std::array<uint16_t, 64> kLumaQuantBase;

/// Standard JPEG Annex K chrominance quantization table.
extern const std::array<uint16_t, 64> kChromaQuantBase;

/// Scales a base table for a quality setting 1..100 using the libjpeg
/// convention (50 = base table; higher = finer quantization).
std::array<uint16_t, 64> ScaleQuantTable(const std::array<uint16_t, 64>& base,
                                         int quality);

/// Zigzag scan order: kZigzag[i] is the row-major index of the i-th
/// coefficient in zigzag order.
extern const std::array<uint8_t, 64> kZigzag;

/// The transforms behind ForwardDct8x8 and InverseDct8x8, exposed so
/// tests can hold the CPU-dispatched ones to the four-lane and scalar
/// references. There is no switch: the kernel is fixed by the build and
/// the CPU.
namespace dct_internal {

using ForwardDctFn = void (*)(const float in[64], float out[64]);
using InverseDctFn = void (*)(const float in[64], float out[64],
                              const DctMask& mask);

/// The four-lane simd::F32x4 transforms; every build has them.
void ForwardDct8x8FourLane(const float in[64], float out[64]);
void InverseDct8x8FourLane(const float in[64], float out[64],
                           const DctMask& mask);

/// The transform ForwardDct8x8 runs: the eight-lane AVX2 kernel when
/// simd::HasAvx2(), else ForwardDct8x8FourLane. Chosen once.
ForwardDctFn ActiveForwardDct();

/// The transform InverseDct8x8 runs: the eight-lane AVX2 kernel when
/// simd::HasAvx2(), else InverseDct8x8FourLane. Chosen once.
InverseDctFn ActiveInverseDct();

}  // namespace dct_internal

}  // namespace tbm

#endif  // TBM_CODEC_DCT_H_
