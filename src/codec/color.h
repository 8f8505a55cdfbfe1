#ifndef TBM_CODEC_COLOR_H_
#define TBM_CODEC_COLOR_H_

#include "codec/image.h"

namespace tbm {

/// Color-model conversions used by the Figure 2 capture pipeline and
/// the Table 1 color-separation derivation.

/// RGB → planar YUV (BT.601 full-range) at the requested subsampling
/// (kYuv444, kYuv422 or kYuv420). Chroma is averaged over the pixels it
/// covers, matching the paper's "U and V are subsampled (averaged over
/// neighboring pixels)".
Result<Image> RgbToYuv(const Image& rgb, ColorModel target);

/// Planar YUV (any subsampling) → RGB. Chroma is replicated.
Result<Image> YuvToRgb(const Image& yuv);

/// Parameters for RGB → CMYK separation. The mapping is not unique
/// (paper §4.2): black generation and under-color removal depend on
/// inks and paper, so they are derivation parameters.
struct SeparationParams {
  /// Fraction [0,1] of the gray component moved into the K channel
  /// (black generation).
  double black_generation = 1.0;
  /// Fraction [0,1] of that gray removed from C/M/Y (under-color
  /// removal).
  double under_color_removal = 1.0;

  /// InvalidArgument unless both fractions are in [0,1] (NaN is not).
  Status Validate() const;
};

/// RGB → CMYK with the given separation table parameters (Table 1:
/// "color separation", category: change of content).
Result<Image> RgbToCmyk(const Image& rgb, const SeparationParams& params);

/// Raw per-pixel kernel behind RgbToCmyk: converts `n` interleaved RGB
/// pixels into `n` interleaved CMYK pixels. Exposed so the derivation
/// plan compiler can run the separation inside a fused element loop
/// without materializing an intermediate Image. `params` must pass
/// Validate().
void RgbToCmykPixels(const uint8_t* rgb, uint8_t* cmyk, size_t n,
                     const SeparationParams& params);

/// CMYK → RGB (for round-trip verification of separations).
Result<Image> CmykToRgb(const Image& cmyk);

/// Extracts one CMYK channel (0=C,1=M,2=Y,3=K) as a grayscale plate —
/// the four printing plates of Figure 3a.
Result<Image> CmykPlate(const Image& cmyk, int channel);

/// RGB → 8-bit grayscale (BT.601 luma).
Result<Image> RgbToGray(const Image& rgb);

/// The conversion steps behind RgbToYuv and YuvToRgb, exposed so tests
/// can hold the CPU-dispatched path to the four-lane reference. There is
/// no switch: the path is fixed by the build and the CPU.
namespace color_internal {

/// Converts the full 2×2 cells of the RGB row pair at `rgb` (the second
/// row starts 3·w bytes later), 16 columns per step, from the left:
/// their luma to the rows at `y` and `y + w`, their averaged chroma to
/// `u` and `v`. Returns the columns converted, a multiple of 16.
using Cells420Fn = int32_t (*)(const uint8_t* rgb, int32_t w, uint8_t* y,
                               uint8_t* u, uint8_t* v);

/// The eight-lane AVX2 step when the CPU has AVX2 (simd::HasAvx2()),
/// else null. Chosen once.
Cells420Fn ActiveCells420();

/// RgbToYuv with `cells` converting what it can of each 4:2:0 row pair
/// and the four-lane step the rest; a null `cells` leaves everything to
/// the four-lane step. RgbToYuv is RgbToYuvWith(…, ActiveCells420()).
Result<Image> RgbToYuvWith(const Image& rgb, ColorModel target,
                           Cells420Fn cells);

/// Converts one chroma row of a YUV image to RGB, 16 columns per step,
/// from the left: the `nrows` luma rows at `y` (each w bytes after the
/// last), with the chroma samples at `u` and `v` (each shared by two
/// neighbouring columns when `halved`), to the RGB rows at `rgb` (each
/// 3·w bytes after the last). Returns the columns converted, a
/// multiple of 16.
using YuvRowsFn = int32_t (*)(const uint8_t* y, int32_t w, int nrows,
                              const uint8_t* u, const uint8_t* v, bool halved,
                              uint8_t* rgb);

/// The eight-lane AVX2 step when the CPU has AVX2 (simd::HasAvx2()),
/// else null. Chosen once.
YuvRowsFn ActiveYuvRows();

/// YuvToRgb with `rows` converting what it can of each chroma row and
/// the four-lane step the rest; a null `rows` leaves everything to the
/// four-lane step. YuvToRgb is YuvToRgbWith(…, ActiveYuvRows()).
Result<Image> YuvToRgbWith(const Image& yuv, YuvRowsFn rows);

}  // namespace color_internal

}  // namespace tbm

#endif  // TBM_CODEC_COLOR_H_
