#include "codec/tmpeg.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <vector>

#include "base/io.h"
#include "base/macros.h"
#include "base/simd.h"
#include "codec/codec_metrics.h"
#include "codec/color.h"
#include "obs/trace.h"
#include "codec/dct.h"
#include "codec/tjpeg.h"

namespace tbm {

std::string_view FrameKindToString(FrameKind kind) {
  switch (kind) {
    case FrameKind::kKey: return "key";
    case FrameKind::kDelta: return "delta";
    case FrameKind::kBidirectional: return "bidirectional";
  }
  return "unknown";
}

namespace {

constexpr uint32_t kTmpegMagic = 0x4745'504Du;  // 'MPEG'-ish tag.

// Working representation of a frame: three int16 YUV 4:2:0 planes.
struct Planes {
  int32_t w = 0, h = 0;    // Luma geometry.
  int32_t cw = 0, ch = 0;  // Chroma geometry.
  std::vector<int16_t> y, u, v;
};

Result<Planes> ToPlanes(const Image& rgb) {
  TBM_ASSIGN_OR_RETURN(Image yuv, RgbToYuv(rgb, ColorModel::kYuv420));
  Planes p;
  p.w = yuv.width;
  p.h = yuv.height;
  p.cw = yuv.ChromaWidth();
  p.ch = yuv.ChromaHeight();
  const size_t luma = static_cast<size_t>(p.w) * p.h;
  const size_t chroma = static_cast<size_t>(p.cw) * p.ch;
  p.y.resize(luma);
  p.u.resize(chroma);
  p.v.resize(chroma);
  for (size_t i = 0; i < luma; ++i) p.y[i] = yuv.data[i];
  for (size_t i = 0; i < chroma; ++i) p.u[i] = yuv.data[luma + i];
  for (size_t i = 0; i < chroma; ++i) p.v[i] = yuv.data[luma + chroma + i];
  return p;
}

Result<Image> FromPlanes(const Planes& p) {
  Image yuv;
  yuv.width = p.w;
  yuv.height = p.h;
  yuv.model = ColorModel::kYuv420;
  const size_t luma = static_cast<size_t>(p.w) * p.h;
  const size_t chroma = static_cast<size_t>(p.cw) * p.ch;
  Bytes pixels_out(luma + 2 * chroma);
  for (size_t i = 0; i < luma; ++i) {
    pixels_out[i] = static_cast<uint8_t>(std::clamp<int>(p.y[i], 0, 255));
  }
  for (size_t i = 0; i < chroma; ++i) {
    pixels_out[luma + i] = static_cast<uint8_t>(std::clamp<int>(p.u[i], 0, 255));
  }
  for (size_t i = 0; i < chroma; ++i) {
    pixels_out[luma + chroma + i] =
        static_cast<uint8_t>(std::clamp<int>(p.v[i], 0, 255));
  }
  yuv.data = std::move(pixels_out);
  return YuvToRgb(yuv);
}

// Encodes the difference (cur - pred) of each plane; pass pred=nullptr
// for intra coding (level shift by 128 instead).
void EncodePlanes(const Planes& cur, const Planes* pred, int quality,
                  BinaryWriter* writer) {
  auto luma_q = ScaleQuantTable(kLumaQuantBase, quality);
  auto chroma_q = ScaleQuantTable(kChromaQuantBase, quality);
  auto encode_one = [&](const std::vector<int16_t>& plane,
                        const std::vector<int16_t>* ref, int32_t w, int32_t h,
                        const std::array<uint16_t, 64>& q) {
    std::vector<int16_t> residual(plane.size());
    for (size_t i = 0; i < plane.size(); ++i) {
      residual[i] =
          static_cast<int16_t>(plane[i] - (ref ? (*ref)[i] : 128));
    }
    tjpeg_internal::EncodePlane(residual.data(), w, h, q, writer);
  };
  encode_one(cur.y, pred ? &pred->y : nullptr, cur.w, cur.h, luma_q);
  encode_one(cur.u, pred ? &pred->u : nullptr, cur.cw, cur.ch, chroma_q);
  encode_one(cur.v, pred ? &pred->v : nullptr, cur.cw, cur.ch, chroma_q);
}

Status DecodePlanes(BinaryReader* reader, const Planes* pred, int quality,
                    Planes* out) {
  auto luma_q = ScaleQuantTable(kLumaQuantBase, quality);
  auto chroma_q = ScaleQuantTable(kChromaQuantBase, quality);
  auto decode_one = [&](std::vector<int16_t>* plane,
                        const std::vector<int16_t>* ref, int32_t w, int32_t h,
                        const std::array<uint16_t, 64>& q) -> Status {
    std::vector<int16_t> residual(static_cast<size_t>(w) * h);
    TBM_RETURN_IF_ERROR(
        tjpeg_internal::DecodePlane(reader, w, h, q, residual.data()));
    plane->resize(residual.size());
    for (size_t i = 0; i < residual.size(); ++i) {
      (*plane)[i] = static_cast<int16_t>(
          std::clamp<int>(residual[i] + (ref ? (*ref)[i] : 128), 0, 255));
    }
    return Status::OK();
  };
  TBM_RETURN_IF_ERROR(
      decode_one(&out->y, pred ? &pred->y : nullptr, out->w, out->h, luma_q));
  TBM_RETURN_IF_ERROR(decode_one(&out->u, pred ? &pred->u : nullptr, out->cw,
                                 out->ch, chroma_q));
  TBM_RETURN_IF_ERROR(decode_one(&out->v, pred ? &pred->v : nullptr, out->cw,
                                 out->ch, chroma_q));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Block motion compensation

struct MotionVector {
  int8_t dx = 0;
  int8_t dy = 0;
};

constexpr int kMcBlock = 16;      // Luma block edge.
constexpr int kMcSearch = 4;      // Search window radius, pixels.

int BlocksAcross(int32_t extent) {
  return static_cast<int>((extent + kMcBlock - 1) / kMcBlock);
}

// Sum of absolute differences between a cur block and a prev block
// shifted by (dx, dy); out-of-frame prev samples clamp to the edge.
int64_t BlockSad(const Planes& cur, const Planes& prev, int32_t bx,
                 int32_t by, int dx, int dy) {
  int64_t sad = 0;
  for (int32_t y = by; y < std::min<int32_t>(by + kMcBlock, cur.h); ++y) {
    int32_t sy = std::clamp<int32_t>(y + dy, 0, prev.h - 1);
    for (int32_t x = bx; x < std::min<int32_t>(bx + kMcBlock, cur.w); ++x) {
      int32_t sx = std::clamp<int32_t>(x + dx, 0, prev.w - 1);
      sad += std::abs(static_cast<int>(cur.y[y * cur.w + x]) -
                      prev.y[sy * prev.w + sx]);
    }
  }
  return sad;
}

// A luma plane as bytes for the lane SAD, or empty if a sample lies
// outside 0..255. Frames from ToPlanes and from a decode never do: both
// clamp.
std::vector<uint8_t> LumaBytes(const Planes& p) {
  std::vector<uint8_t> out(p.y.size());
  for (size_t i = 0; i < p.y.size(); ++i) {
    if (p.y[i] < 0 || p.y[i] > 255) return {};
    out[i] = static_cast<uint8_t>(p.y[i]);
  }
  return out;
}

// Full search over the window, row-major block order. A whole block
// whose shifted copy lies inside prev sums its SAD in 16-byte lanes;
// blocks that touch an edge clamp in the scalar loop. Both give the
// same integer, so the chosen vectors do not depend on the path.
std::vector<MotionVector> EstimateMotion(const Planes& cur,
                                         const Planes& prev) {
  const std::vector<uint8_t> cur8 = LumaBytes(cur), prev8 = LumaBytes(prev);
  const bool lanes = !cur8.empty() && !prev8.empty() && cur.w == prev.w &&
                     cur.h == prev.h;
  const int32_t w = cur.w, h = cur.h;
  auto sad = [&](int32_t bx, int32_t by, int dx, int dy) -> int64_t {
    const int32_t sx = bx + dx, sy = by + dy;
    if (lanes && bx + kMcBlock <= w && by + kMcBlock <= h && sx >= 0 &&
        sx + kMcBlock <= w && sy >= 0 && sy + kMcBlock <= h) {
      return simd::SadU8x16(&cur8[static_cast<size_t>(by) * w + bx],
                            &prev8[static_cast<size_t>(sy) * w + sx], w,
                            kMcBlock);
    }
    return BlockSad(cur, prev, bx, by, dx, dy);
  };
  std::vector<MotionVector> mvs;
  mvs.reserve(static_cast<size_t>(BlocksAcross(cur.w)) * BlocksAcross(cur.h));
  for (int32_t by = 0; by < cur.h; by += kMcBlock) {
    for (int32_t bx = 0; bx < cur.w; bx += kMcBlock) {
      MotionVector best;
      int64_t best_sad = sad(bx, by, 0, 0);
      for (int dy = -kMcSearch; dy <= kMcSearch; ++dy) {
        for (int dx = -kMcSearch; dx <= kMcSearch; ++dx) {
          if (dx == 0 && dy == 0) continue;
          int64_t candidate = sad(bx, by, dx, dy);
          if (candidate < best_sad) {
            best_sad = candidate;
            best.dx = static_cast<int8_t>(dx);
            best.dy = static_cast<int8_t>(dy);
          }
        }
      }
      mvs.push_back(best);
    }
  }
  return mvs;
}

// Builds the motion-compensated prediction: each luma block copied from
// prev at its vector; chroma uses half-pel-truncated vectors on the
// subsampled planes.
Planes MotionPredict(const Planes& prev,
                     const std::vector<MotionVector>& mvs) {
  Planes out = prev;  // Geometry template; planes overwritten below.
  const int blocks_across = BlocksAcross(prev.w);
  auto shift_plane = [&](const std::vector<int16_t>& src,
                         std::vector<int16_t>* dst, int32_t w, int32_t h,
                         int mv_shift) {
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        int block_index =
            (y * (1 << mv_shift) / kMcBlock) * blocks_across +
            (x * (1 << mv_shift) / kMcBlock);
        const MotionVector& mv = mvs[block_index];
        int32_t sx = std::clamp<int32_t>(x + (mv.dx >> mv_shift), 0, w - 1);
        int32_t sy = std::clamp<int32_t>(y + (mv.dy >> mv_shift), 0, h - 1);
        (*dst)[y * w + x] = src[sy * w + sx];
      }
    }
  };
  shift_plane(prev.y, &out.y, prev.w, prev.h, 0);
  shift_plane(prev.u, &out.u, prev.cw, prev.ch, 1);
  shift_plane(prev.v, &out.v, prev.cw, prev.ch, 1);
  return out;
}

void WriteMotionVectors(const std::vector<MotionVector>& mvs,
                        BinaryWriter* writer) {
  writer->WriteVarU64(mvs.size());
  for (const MotionVector& mv : mvs) {
    writer->WriteU8(static_cast<uint8_t>(mv.dx));
    writer->WriteU8(static_cast<uint8_t>(mv.dy));
  }
}

Result<std::vector<MotionVector>> ReadMotionVectors(BinaryReader* reader) {
  TBM_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarU64());
  if (count > (1u << 22)) {
    return Status::Corruption("implausible motion-vector count");
  }
  std::vector<MotionVector> mvs(count);
  for (uint64_t i = 0; i < count; ++i) {
    TBM_ASSIGN_OR_RETURN(uint8_t dx, reader->ReadU8());
    TBM_ASSIGN_OR_RETURN(uint8_t dy, reader->ReadU8());
    mvs[i].dx = static_cast<int8_t>(dx);
    mvs[i].dy = static_cast<int8_t>(dy);
  }
  return mvs;
}

// Linear interpolation of two reference frames: the prediction for a
// bidirectional frame at position p between keys at a < p < b.
Planes Interpolate(const Planes& before, const Planes& after, double weight) {
  Planes out = before;
  auto mix = [&](const std::vector<int16_t>& a, const std::vector<int16_t>& b,
                 std::vector<int16_t>* o) {
    for (size_t i = 0; i < a.size(); ++i) {
      (*o)[i] = static_cast<int16_t>(
          std::lround((1.0 - weight) * a[i] + weight * b[i]));
    }
  };
  mix(before.y, after.y, &out.y);
  mix(before.u, after.u, &out.u);
  mix(before.v, after.v, &out.v);
  return out;
}

void WriteFrameHeader(BinaryWriter* writer, FrameKind kind, int32_t w,
                      int32_t h, int quality, int64_t presentation,
                      int64_t ref_before, int64_t ref_after,
                      bool motion_compensated = false) {
  writer->WriteU32(kTmpegMagic);
  writer->WriteU8(static_cast<uint8_t>(kind));
  writer->WriteU8(static_cast<uint8_t>(quality));
  writer->WriteVarU64(static_cast<uint64_t>(w));
  writer->WriteVarU64(static_cast<uint64_t>(h));
  writer->WriteVarI64(presentation);
  writer->WriteVarI64(ref_before);
  writer->WriteVarI64(ref_after);
  writer->WriteU8(motion_compensated ? 1 : 0);
}

struct FrameHeader {
  FrameKind kind;
  int quality;
  int32_t w, h;
  int64_t presentation;
  int64_t ref_before, ref_after;
  bool motion_compensated = false;
};

Result<FrameHeader> ReadFrameHeader(BinaryReader* reader) {
  FrameHeader hdr;
  TBM_ASSIGN_OR_RETURN(uint32_t magic, reader->ReadU32());
  if (magic != kTmpegMagic) return Status::Corruption("not a TMPEG frame");
  TBM_ASSIGN_OR_RETURN(uint8_t kind, reader->ReadU8());
  if (kind > static_cast<uint8_t>(FrameKind::kBidirectional)) {
    return Status::Corruption("bad TMPEG frame kind");
  }
  hdr.kind = static_cast<FrameKind>(kind);
  TBM_ASSIGN_OR_RETURN(uint8_t quality, reader->ReadU8());
  if (quality < 1 || quality > 100) {
    return Status::Corruption("bad TMPEG quality");
  }
  hdr.quality = quality;
  TBM_ASSIGN_OR_RETURN(uint64_t w, reader->ReadVarU64());
  TBM_ASSIGN_OR_RETURN(uint64_t h, reader->ReadVarU64());
  if (w == 0 || h == 0 || w > (1u << 20) || h > (1u << 20)) {
    return Status::Corruption("implausible TMPEG geometry");
  }
  hdr.w = static_cast<int32_t>(w);
  hdr.h = static_cast<int32_t>(h);
  TBM_ASSIGN_OR_RETURN(hdr.presentation, reader->ReadVarI64());
  TBM_ASSIGN_OR_RETURN(hdr.ref_before, reader->ReadVarI64());
  TBM_ASSIGN_OR_RETURN(hdr.ref_after, reader->ReadVarI64());
  TBM_ASSIGN_OR_RETURN(uint8_t mc, reader->ReadU8());
  hdr.motion_compensated = mc != 0;
  // The writer follows the header with the motion vectors, if any (a
  // count varint and two bytes per 16×16 block), then three planes.
  const int32_t cw = (hdr.w + 1) / 2, ch = (hdr.h + 1) / 2;
  uint64_t min_bytes = tjpeg_internal::MinPlaneBytes(hdr.w, hdr.h) +
                       2 * tjpeg_internal::MinPlaneBytes(cw, ch);
  if (hdr.motion_compensated) {
    min_bytes += 1 + 2 * static_cast<uint64_t>(BlocksAcross(hdr.w)) *
                         BlocksAcross(hdr.h);
  }
  if (reader->remaining() < min_bytes) {
    return Status::Corruption("TMPEG frame too short for its geometry");
  }
  return hdr;
}

}  // namespace

Result<std::vector<TmpegFrame>> TmpegEncodeSequence(
    const std::vector<Image>& frames, const TmpegConfig& config) {
  obs::ScopedSpan span("codec.tmpeg.encode");
  const auto& metrics = codec_internal::CodecMetrics::Get();
  obs::ScopedTimerUs timer(metrics.encode_us);
  metrics.encodes->Add();
  if (frames.empty()) {
    return Status::InvalidArgument("cannot encode an empty sequence");
  }
  if (config.quality < 1 || config.quality > 100) {
    return Status::InvalidArgument("TMPEG quality must be 1..100");
  }
  if (config.key_interval < 1) {
    return Status::InvalidArgument("key interval must be >= 1");
  }
  for (const Image& f : frames) {
    TBM_RETURN_IF_ERROR(f.Validate());
    if (f.model != ColorModel::kRgb24) {
      return Status::InvalidArgument("TMPEG encodes RGB frames");
    }
    if (f.width != frames.front().width ||
        f.height != frames.front().height) {
      return Status::InvalidArgument("all frames must share geometry");
    }
  }

  std::vector<TmpegFrame> out;
  const int64_t n = static_cast<int64_t>(frames.size());

  auto encode_key = [&](int64_t i) -> Result<Planes> {
    TBM_ASSIGN_OR_RETURN(Planes cur, ToPlanes(frames[i]));
    BinaryWriter writer;
    WriteFrameHeader(&writer, FrameKind::kKey, cur.w, cur.h, config.quality,
                     i, -1, -1);
    EncodePlanes(cur, nullptr, config.quality, &writer);
    TmpegFrame frame;
    frame.data = writer.TakeBuffer();
    frame.kind = FrameKind::kKey;
    frame.presentation_index = i;
    out.push_back(std::move(frame));
    // Closed loop: reconstruct exactly as the decoder will.
    BinaryReader reader(out.back().data);
    TBM_ASSIGN_OR_RETURN(FrameHeader hdr, ReadFrameHeader(&reader));
    Planes recon = cur;  // Geometry only; planes overwritten below.
    TBM_RETURN_IF_ERROR(DecodePlanes(&reader, nullptr, hdr.quality, &recon));
    return recon;
  };

  if (!config.bidirectional) {
    // Forward-delta mode: key, then deltas from the previous
    // reconstruction; storage order equals presentation order.
    Planes prev;
    for (int64_t i = 0; i < n; ++i) {
      if (i % config.key_interval == 0) {
        TBM_ASSIGN_OR_RETURN(prev, encode_key(i));
        continue;
      }
      TBM_ASSIGN_OR_RETURN(Planes cur, ToPlanes(frames[i]));
      BinaryWriter writer;
      WriteFrameHeader(&writer, FrameKind::kDelta, cur.w, cur.h,
                       config.quality, i, i - 1, -1,
                       config.motion_compensation);
      Planes mc_pred;
      const Planes* pred = &prev;
      if (config.motion_compensation) {
        std::vector<MotionVector> mvs = EstimateMotion(cur, prev);
        WriteMotionVectors(mvs, &writer);
        mc_pred = MotionPredict(prev, mvs);
        pred = &mc_pred;
      }
      EncodePlanes(cur, pred, config.quality, &writer);
      TmpegFrame frame;
      frame.data = writer.TakeBuffer();
      frame.kind = FrameKind::kDelta;
      frame.presentation_index = i;
      frame.ref_before = i - 1;
      out.push_back(std::move(frame));
      // Closed loop: reconstruct exactly as the decoder will.
      BinaryReader reader(out.back().data);
      TBM_ASSIGN_OR_RETURN(FrameHeader hdr, ReadFrameHeader(&reader));
      if (hdr.motion_compensated) {
        TBM_RETURN_IF_ERROR(ReadMotionVectors(&reader).status());
      }
      Planes recon = cur;
      TBM_RETURN_IF_ERROR(DecodePlanes(&reader, pred, hdr.quality, &recon));
      prev = std::move(recon);
    }
    return out;
  }

  // Bidirectional mode: keys at multiples of key_interval (and the last
  // frame); intermediates predicted from the bracketing keys. Storage
  // order places both keys before their intermediates — the paper's
  // "1,4,2,3" placement.
  std::map<int64_t, Planes> key_recon;
  std::vector<int64_t> key_positions;
  for (int64_t i = 0; i < n; i += config.key_interval) {
    key_positions.push_back(i);
  }
  if (key_positions.back() != n - 1) key_positions.push_back(n - 1);

  for (int64_t pos : key_positions) {
    TBM_ASSIGN_OR_RETURN(Planes recon, encode_key(pos));
    key_recon.emplace(pos, std::move(recon));
  }
  for (size_t k = 0; k + 1 < key_positions.size(); ++k) {
    const int64_t a = key_positions[k];
    const int64_t b = key_positions[k + 1];
    for (int64_t i = a + 1; i < b; ++i) {
      TBM_ASSIGN_OR_RETURN(Planes cur, ToPlanes(frames[i]));
      double weight = static_cast<double>(i - a) / static_cast<double>(b - a);
      Planes pred = Interpolate(key_recon.at(a), key_recon.at(b), weight);
      BinaryWriter writer;
      WriteFrameHeader(&writer, FrameKind::kBidirectional, cur.w, cur.h,
                       config.quality, i, a, b);
      EncodePlanes(cur, &pred, config.quality, &writer);
      TmpegFrame frame;
      frame.data = writer.TakeBuffer();
      frame.kind = FrameKind::kBidirectional;
      frame.presentation_index = i;
      frame.ref_before = a;
      frame.ref_after = b;
      out.push_back(std::move(frame));
    }
  }
  return out;
}

Result<std::vector<Image>> TmpegDecodeSequence(
    const std::vector<TmpegFrame>& frames) {
  obs::ScopedSpan span("codec.tmpeg.decode");
  const auto& metrics = codec_internal::CodecMetrics::Get();
  obs::ScopedTimerUs timer(metrics.decode_us);
  metrics.decodes->Add();
  if (frames.empty()) {
    return Status::InvalidArgument("cannot decode an empty sequence");
  }
  std::map<int64_t, Planes> decoded;  // presentation index -> planes.
  for (const TmpegFrame& frame : frames) {
    BinaryReader reader(frame.data);
    TBM_ASSIGN_OR_RETURN(FrameHeader hdr, ReadFrameHeader(&reader));
    // A prediction is read sample for sample over the frame's geometry.
    auto mismatched = [&hdr](const Planes& ref) {
      return ref.w != hdr.w || ref.h != hdr.h;
    };
    Planes out;
    out.w = hdr.w;
    out.h = hdr.h;
    out.cw = (hdr.w + 1) / 2;
    out.ch = (hdr.h + 1) / 2;
    switch (hdr.kind) {
      case FrameKind::kKey: {
        TBM_RETURN_IF_ERROR(DecodePlanes(&reader, nullptr, hdr.quality, &out));
        break;
      }
      case FrameKind::kDelta: {
        auto ref = decoded.find(hdr.ref_before);
        if (ref == decoded.end()) {
          return Status::FailedPrecondition(
              "delta frame " + std::to_string(hdr.presentation) +
              " arrived before its reference " +
              std::to_string(hdr.ref_before));
        }
        if (mismatched(ref->second)) {
          return Status::Corruption("TMPEG delta frame geometry differs from "
                                    "its reference");
        }
        Planes mc_pred;
        const Planes* pred = &ref->second;
        if (hdr.motion_compensated) {
          TBM_ASSIGN_OR_RETURN(std::vector<MotionVector> mvs,
                               ReadMotionVectors(&reader));
          const size_t expected =
              static_cast<size_t>(BlocksAcross(hdr.w)) * BlocksAcross(hdr.h);
          if (mvs.size() != expected) {
            return Status::Corruption("motion-vector count mismatch");
          }
          mc_pred = MotionPredict(ref->second, mvs);
          pred = &mc_pred;
        }
        TBM_RETURN_IF_ERROR(DecodePlanes(&reader, pred, hdr.quality, &out));
        break;
      }
      case FrameKind::kBidirectional: {
        auto before = decoded.find(hdr.ref_before);
        auto after = decoded.find(hdr.ref_after);
        if (before == decoded.end() || after == decoded.end()) {
          return Status::FailedPrecondition(
              "bidirectional frame " + std::to_string(hdr.presentation) +
              " arrived before its reference keys");
        }
        if (mismatched(before->second) || mismatched(after->second)) {
          return Status::Corruption("TMPEG bidirectional frame geometry "
                                    "differs from its reference keys");
        }
        double weight =
            static_cast<double>(hdr.presentation - hdr.ref_before) /
            static_cast<double>(hdr.ref_after - hdr.ref_before);
        Planes pred = Interpolate(before->second, after->second, weight);
        TBM_RETURN_IF_ERROR(DecodePlanes(&reader, &pred, hdr.quality, &out));
        break;
      }
    }
    decoded.emplace(hdr.presentation, std::move(out));
  }
  std::vector<Image> out;
  out.reserve(decoded.size());
  int64_t expected = 0;
  for (const auto& [presentation, planes] : decoded) {
    if (presentation != expected++) {
      return Status::Corruption("missing frame " +
                                std::to_string(expected - 1));
    }
    TBM_ASSIGN_OR_RETURN(Image rgb, FromPlanes(planes));
    out.push_back(std::move(rgb));
  }
  return out;
}

Result<TmpegFrame> TmpegParseFrame(BufferSlice data) {
  BinaryReader reader(data);
  TBM_ASSIGN_OR_RETURN(FrameHeader hdr, ReadFrameHeader(&reader));
  TmpegFrame frame;
  frame.data = std::move(data);
  frame.kind = hdr.kind;
  frame.presentation_index = hdr.presentation;
  frame.ref_before = hdr.ref_before;
  frame.ref_after = hdr.ref_after;
  return frame;
}

Result<std::vector<std::pair<int64_t, Image>>> TmpegDecodeKeysOnly(
    const std::vector<TmpegFrame>& frames) {
  obs::ScopedSpan span("codec.tmpeg.decode_keys");
  const auto& metrics = codec_internal::CodecMetrics::Get();
  obs::ScopedTimerUs timer(metrics.decode_us);
  metrics.decodes->Add();
  std::vector<std::pair<int64_t, Image>> out;
  for (const TmpegFrame& frame : frames) {
    if (frame.kind != FrameKind::kKey) continue;
    BinaryReader reader(frame.data);
    TBM_ASSIGN_OR_RETURN(FrameHeader hdr, ReadFrameHeader(&reader));
    Planes planes;
    planes.w = hdr.w;
    planes.h = hdr.h;
    planes.cw = (hdr.w + 1) / 2;
    planes.ch = (hdr.h + 1) / 2;
    TBM_RETURN_IF_ERROR(DecodePlanes(&reader, nullptr, hdr.quality, &planes));
    TBM_ASSIGN_OR_RETURN(Image rgb, FromPlanes(planes));
    out.emplace_back(hdr.presentation, std::move(rgb));
  }
  return out;
}

}  // namespace tbm
