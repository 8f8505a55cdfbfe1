#ifndef TBM_CODEC_TJPEG_H_
#define TBM_CODEC_TJPEG_H_

#include <vector>

#include "base/io.h"
#include "codec/image.h"

namespace tbm {

/// TJPEG — the library's from-scratch intraframe image codec.
///
/// It is the working substitute for the JPEG compression the paper's
/// Figure 2 example applies to video frames: RGB → YUV 4:2:0 → per-
/// plane 8×8 DCT → quality-scaled quantization → zigzag + run-length
/// entropy coding. Like JPEG it is lossy, its rate is controlled by a
/// single quality knob (1..100), and — because every frame is coded
/// independently — TJPEG video can be cut, reordered and played in
/// reverse without reference chains (paper §2.1 on JPEG video).
///
/// Quality-factor policy (paper §2.2): applications should specify the
/// *named* quality factor on a media descriptor; the quality integer
/// here is the low-level parameter the library derives from it.

/// Encodes an RGB or grayscale image. Internally converts RGB to
/// YUV 4:2:0. Returns the compressed byte form (self-describing:
/// carries geometry and quality in its header).
Result<Bytes> TjpegEncode(const Image& image, int quality);

/// Decodes TJPEG bytes back to an RGB (or grayscale) image.
Result<Image> TjpegDecode(ByteSpan bytes);

/// Achieved bits per pixel of an encoding.
double TjpegBitsPerPixel(const Image& image, size_t encoded_bytes);

/// Plane-level primitives, shared with the TMPEG interframe codec.
/// Values are int16 samples (pixels are level-shifted by -128 before
/// calling; interframe residuals are used as-is).
namespace tjpeg_internal {

/// Encodes a w×h int16 plane with the given quantization table into
/// `writer`. `w` and `h` need not be multiples of 8 (edge blocks are
/// replicated).
void EncodePlane(const int16_t* plane, int32_t w, int32_t h,
                 const std::array<uint16_t, 64>& quant, BinaryWriter* writer);

/// The fewest bytes EncodePlane writes for a w×h plane: a DC varint and
/// the end-of-block marker, one byte each, per 8×8 block. Decoders
/// check a header's geometry against it before they allocate.
uint64_t MinPlaneBytes(int32_t w, int32_t h);

/// Decodes a plane written by EncodePlane.
Status DecodePlane(BinaryReader* reader, int32_t w, int32_t h,
                   const std::array<uint16_t, 64>& quant, int16_t* plane);

}  // namespace tjpeg_internal

}  // namespace tbm

#endif  // TBM_CODEC_TJPEG_H_
