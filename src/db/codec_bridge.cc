#include "db/codec_bridge.h"

#include <algorithm>

#include "base/macros.h"
#include "codec/adpcm.h"
#include "codec/tjpeg.h"
#include "codec/tmpeg.h"
#include "interp/capture.h"
#include "obs/trace.h"

namespace tbm {

namespace {

Result<ColorModel> ParseColorModel(const std::string& name) {
  if (name == "RGB") return ColorModel::kRgb24;
  if (name == "GRAY") return ColorModel::kGray8;
  if (name == "YUV 4:4:4") return ColorModel::kYuv444;
  if (name == "YUV 4:2:2") return ColorModel::kYuv422;
  if (name == "YUV 4:2:0") return ColorModel::kYuv420;
  if (name == "CMYK") return ColorModel::kCmyk32;
  return Status::InvalidArgument("unknown color model \"" + name + "\"");
}

Result<MediaValue> DecodePcm(const TimedStream& stream) {
  TBM_ASSIGN_OR_RETURN(int64_t rate,
                       stream.descriptor().attrs.GetInt("sample rate"));
  TBM_ASSIGN_OR_RETURN(
      int64_t channels,
      stream.descriptor().attrs.GetInt("number of channels"));
  Bytes bytes;
  for (const StreamElement& element : stream) {
    bytes.insert(bytes.end(), element.data.begin(), element.data.end());
  }
  TBM_ASSIGN_OR_RETURN(
      AudioBuffer audio,
      AudioBuffer::FromBytes(bytes, rate, static_cast<int32_t>(channels)));
  return MediaValue(std::move(audio));
}

Result<MediaValue> DecodeAdpcm(const TimedStream& stream) {
  TBM_ASSIGN_OR_RETURN(int64_t rate,
                       stream.descriptor().attrs.GetInt("sample rate"));
  TBM_ASSIGN_OR_RETURN(
      int64_t channels,
      stream.descriptor().attrs.GetInt("number of channels"));
  std::vector<AdpcmBlock> blocks;
  for (const StreamElement& element : stream) {
    AdpcmBlock block;
    block.data = element.data;
    block.frames = element.duration;
    for (int32_t c = 0; c < channels; ++c) {
      std::string suffix = c == 0 ? "" : std::to_string(c);
      TBM_ASSIGN_OR_RETURN(int64_t predictor,
                           element.descriptor.GetInt("predictor" + suffix));
      TBM_ASSIGN_OR_RETURN(int64_t step,
                           element.descriptor.GetInt("step index" + suffix));
      block.predictor.push_back(static_cast<int16_t>(predictor));
      block.step_index.push_back(static_cast<uint8_t>(step));
    }
    blocks.push_back(std::move(block));
  }
  TBM_ASSIGN_OR_RETURN(
      AudioBuffer audio,
      AdpcmDecode(blocks, rate, static_cast<int32_t>(channels)));
  return MediaValue(std::move(audio));
}

// Elements arrive in presentation order; decoding needs reference
// frames first, i.e. storage order. Sort: keys and deltas by
// presentation, bidirectional frames after their references.
void SortTmpegForDecode(std::vector<TmpegFrame>* frames) {
  std::stable_sort(frames->begin(), frames->end(),
                   [](const TmpegFrame& a, const TmpegFrame& b) {
                     auto order_key = [](const TmpegFrame& f) {
                       return f.kind == FrameKind::kBidirectional
                                  ? f.ref_after
                                  : f.presentation_index;
                     };
                     if (order_key(a) != order_key(b)) {
                       return order_key(a) < order_key(b);
                     }
                     return (a.kind != FrameKind::kBidirectional) &&
                            (b.kind == FrameKind::kBidirectional);
                   });
}

Result<MediaValue> DecodeVideo(const TimedStream& stream,
                               const std::string& type) {
  TBM_ASSIGN_OR_RETURN(Rational rate,
                       stream.descriptor().attrs.GetRational("frame rate"));
  VideoValue video;
  video.frame_rate = rate;
  if (type == "video/raw") {
    TBM_ASSIGN_OR_RETURN(int64_t width,
                         stream.descriptor().attrs.GetInt("frame width"));
    TBM_ASSIGN_OR_RETURN(int64_t height,
                         stream.descriptor().attrs.GetInt("frame height"));
    for (const StreamElement& element : stream) {
      Image frame;
      frame.width = static_cast<int32_t>(width);
      frame.height = static_cast<int32_t>(height);
      frame.model = ColorModel::kRgb24;
      frame.data = element.data;
      TBM_RETURN_IF_ERROR(frame.Validate());
      video.frames.push_back(std::move(frame));
    }
  } else if (type == "video/tjpeg") {
    for (const StreamElement& element : stream) {
      TBM_ASSIGN_OR_RETURN(Image frame, TjpegDecode(element.data));
      video.frames.push_back(std::move(frame));
    }
  } else if (type == "video/tmpeg") {
    // Interframe coding needs references before dependents, so only
    // the parse is per element; the sequence decode runs at the end.
    std::vector<TmpegFrame> frames;
    for (const StreamElement& element : stream) {
      TBM_ASSIGN_OR_RETURN(TmpegFrame frame, TmpegParseFrame(element.data));
      frames.push_back(std::move(frame));
    }
    SortTmpegForDecode(&frames);
    TBM_ASSIGN_OR_RETURN(video.frames, TmpegDecodeSequence(frames));
  } else {
    return Status::Unsupported("unknown video type " + type);
  }
  return MediaValue(std::move(video));
}

Result<MediaValue> DecodeImage(const TimedStream& stream,
                               const std::string& type) {
  if (stream.size() != 1) {
    return Status::InvalidArgument("image stream must hold one element");
  }
  if (type == "image/tjpeg") {
    TBM_ASSIGN_OR_RETURN(Image image, TjpegDecode(stream.at(0).data));
    return MediaValue(std::move(image));
  }
  TBM_ASSIGN_OR_RETURN(int64_t width, stream.descriptor().attrs.GetInt("width"));
  TBM_ASSIGN_OR_RETURN(int64_t height,
                       stream.descriptor().attrs.GetInt("height"));
  TBM_ASSIGN_OR_RETURN(std::string model_name,
                       stream.descriptor().attrs.GetString("color model"));
  TBM_ASSIGN_OR_RETURN(ColorModel model, ParseColorModel(model_name));
  Image image;
  image.width = static_cast<int32_t>(width);
  image.height = static_cast<int32_t>(height);
  image.model = model;
  image.data = stream.at(0).data;
  TBM_RETURN_IF_ERROR(image.Validate());
  return MediaValue(std::move(image));
}

}  // namespace

Result<MediaValue> DecodeStream(const TimedStream& stream) {
  obs::ScopedSpan span("codec.decode_stream");
  const std::string& type = stream.descriptor().type_name;
  if (type == "audio/pcm" || type == "audio/pcm-block") {
    return DecodePcm(stream);
  }
  if (type == "audio/adpcm") return DecodeAdpcm(stream);
  if (type == "video/raw" || type == "video/tjpeg" || type == "video/tmpeg") {
    return DecodeVideo(stream, type);
  }
  if (type == "image/raw" || type == "image/tjpeg") {
    return DecodeImage(stream, type);
  }
  if (type == "music/midi") {
    TBM_ASSIGN_OR_RETURN(MidiSequence midi,
                         MidiSequence::FromEventStream(stream));
    return MediaValue(std::move(midi));
  }
  if (type == "animation/scene") {
    TBM_ASSIGN_OR_RETURN(AnimationScene scene,
                         AnimationScene::FromSceneStream(stream));
    return MediaValue(std::move(scene));
  }
  if (type == "text/captions" || type == "text/plain") {
    // Timed text needs no decoding: the stream is its working form.
    return MediaValue(stream);
  }
  return Status::Unsupported("no decoder for media type \"" + type + "\"");
}

namespace {

constexpr int64_t kPcmFramesPerElement = 4096;

Result<Interpretation> StoreAudio(BlobStore* store, const AudioBuffer& audio,
                                  const std::string& name,
                                  const StoreOptions& options) {
  TBM_RETURN_IF_ERROR(audio.Validate());
  TBM_ASSIGN_OR_RETURN(CaptureSession session, CaptureSession::Begin(store));
  MediaDescriptor desc;
  desc.type_name = "audio/pcm-block";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", audio.sample_rate);
  desc.attrs.SetInt("sample size", 16);
  desc.attrs.SetInt("number of channels", audio.channels);
  desc.attrs.SetString("encoding", "PCM");
  if (!options.quality_factor.empty()) {
    desc.attrs.SetString("quality factor", options.quality_factor);
  }
  TBM_ASSIGN_OR_RETURN(size_t handle,
                       session.DeclareObject(name, desc,
                                             TimeSystem(audio.sample_rate)));
  const int64_t total = audio.FrameCount();
  for (int64_t f = 0; f < total; f += kPcmFramesPerElement) {
    int64_t frames = std::min(kPcmFramesPerElement, total - f);
    Bytes bytes(static_cast<size_t>(frames) * audio.channels * 2);
    for (size_t i = 0; i < bytes.size(); i += 2) {
      uint16_t u = static_cast<uint16_t>(
          audio.samples[f * audio.channels + i / 2]);
      bytes[i] = static_cast<uint8_t>(u);
      bytes[i + 1] = static_cast<uint8_t>(u >> 8);
    }
    TBM_RETURN_IF_ERROR(session.CaptureContiguous(handle, bytes, frames));
  }
  return session.Finish();
}

Result<Interpretation> StoreVideo(BlobStore* store, const VideoValue& video,
                                  const std::string& name,
                                  const StoreOptions& options) {
  TBM_RETURN_IF_ERROR(video.Validate());
  if (video.frames.empty()) {
    return Status::InvalidArgument("cannot store an empty video");
  }
  const Image& first = video.frames.front();

  MediaDescriptor desc;
  desc.kind = MediaKind::kVideo;
  desc.attrs.SetRational("frame rate", video.frame_rate);
  desc.attrs.SetInt("frame width", first.width);
  desc.attrs.SetInt("frame height", first.height);
  desc.attrs.SetInt("frame depth", 24);
  desc.attrs.SetString("color model", "RGB");
  if (!options.quality_factor.empty()) {
    desc.attrs.SetString("quality factor", options.quality_factor);
  }

  if (options.video_codec == "tmpeg") {
    desc.type_name = "video/tmpeg";
    desc.attrs.SetString("encoding", "YUV 4:2:0, TMPEG");
    desc.attrs.SetInt("key interval", options.key_interval);
    desc.attrs.SetInt("codec quality", options.video_quality);
    TmpegConfig config;
    config.quality = options.video_quality;
    config.key_interval = options.key_interval;
    config.bidirectional = options.bidirectional;
    config.motion_compensation = options.motion_compensation;
    TBM_ASSIGN_OR_RETURN(std::vector<TmpegFrame> encoded,
                         TmpegEncodeSequence(video.frames, config));
    // Append in STORAGE order (keys before the intermediates that need
    // them — the paper's out-of-order placement), but expose elements
    // in presentation order in the interpretation table.
    TBM_ASSIGN_OR_RETURN(std::unique_ptr<PushHandle> push, store->StartPush());
    uint64_t offset = 0;
    std::vector<ElementPlacement> by_presentation(encoded.size());
    for (const TmpegFrame& frame : encoded) {
      TBM_RETURN_IF_ERROR(push->Push(frame.data));
      ElementPlacement placement;
      placement.element_number = frame.presentation_index;
      placement.start = frame.presentation_index;
      placement.duration = 1;
      placement.placement = ByteRange{offset, frame.data.size()};
      placement.descriptor.SetString(
          "frame kind", std::string(FrameKindToString(frame.kind)));
      by_presentation[frame.presentation_index] = std::move(placement);
      offset += frame.data.size();
    }
    InterpretedObject object;
    object.name = name;
    object.descriptor = desc;
    object.time_system = TimeSystem(video.frame_rate);
    object.elements = std::move(by_presentation);
    TBM_ASSIGN_OR_RETURN(BlobId blob, push->Finish());
    Interpretation interp(blob);
    TBM_RETURN_IF_ERROR(interp.AddObject(std::move(object)));
    return interp;
  }

  TBM_ASSIGN_OR_RETURN(CaptureSession session, CaptureSession::Begin(store));
  size_t handle = 0;
  if (options.video_codec == "tjpeg") {
    desc.type_name = "video/tjpeg";
    desc.attrs.SetString("encoding", "YUV 4:2:0, TJPEG");
    desc.attrs.SetInt("codec quality", options.video_quality);
    TBM_ASSIGN_OR_RETURN(handle,
                         session.DeclareObject(name, desc,
                                               TimeSystem(video.frame_rate)));
    for (const Image& frame : video.frames) {
      TBM_ASSIGN_OR_RETURN(Bytes encoded,
                           TjpegEncode(frame, options.video_quality));
      TBM_RETURN_IF_ERROR(session.CaptureContiguous(handle, encoded, 1));
    }
  } else if (options.video_codec == "raw") {
    desc.type_name = "video/raw";
    TBM_ASSIGN_OR_RETURN(handle,
                         session.DeclareObject(name, desc,
                                               TimeSystem(video.frame_rate)));
    for (const Image& frame : video.frames) {
      if (frame.model != ColorModel::kRgb24) {
        return Status::InvalidArgument("raw video storage expects RGB");
      }
      TBM_RETURN_IF_ERROR(session.CaptureContiguous(handle, frame.data, 1));
    }
  } else {
    return Status::InvalidArgument("unknown video codec \"" +
                                   options.video_codec + "\"");
  }
  return session.Finish();
}

Result<Interpretation> StoreImage(BlobStore* store, const Image& image,
                                  const std::string& name,
                                  const StoreOptions& options) {
  TBM_RETURN_IF_ERROR(image.Validate());
  TBM_ASSIGN_OR_RETURN(CaptureSession session, CaptureSession::Begin(store));
  MediaDescriptor desc;
  desc.kind = MediaKind::kImage;
  desc.attrs.SetInt("width", image.width);
  desc.attrs.SetInt("height", image.height);
  desc.attrs.SetInt("depth", BitsPerPixel(image.model));
  desc.attrs.SetString("color model",
                       std::string(ColorModelToString(image.model)));
  if (options.video_codec == "tjpeg" &&
      (image.model == ColorModel::kRgb24 ||
       image.model == ColorModel::kGray8)) {
    desc.type_name = "image/tjpeg";
    desc.attrs.SetString("encoding", "TJPEG");
    desc.attrs.SetInt("codec quality", options.video_quality);
    TBM_ASSIGN_OR_RETURN(size_t handle,
                         session.DeclareObject(name, desc, TimeSystem(1)));
    TBM_ASSIGN_OR_RETURN(Bytes encoded,
                         TjpegEncode(image, options.video_quality));
    TBM_RETURN_IF_ERROR(session.CaptureContiguous(handle, encoded, 0));
  } else {
    desc.type_name = "image/raw";
    TBM_ASSIGN_OR_RETURN(size_t handle,
                         session.DeclareObject(name, desc, TimeSystem(1)));
    TBM_RETURN_IF_ERROR(session.CaptureContiguous(handle, image.data, 0));
  }
  return session.Finish();
}

Result<Interpretation> StoreStreamVerbatim(BlobStore* store,
                                           const TimedStream& stream,
                                           const std::string& name) {
  TBM_ASSIGN_OR_RETURN(CaptureSession session, CaptureSession::Begin(store));
  TBM_ASSIGN_OR_RETURN(size_t handle,
                       session.DeclareObject(name, stream.descriptor(),
                                             stream.time_system()));
  for (const StreamElement& element : stream) {
    TBM_RETURN_IF_ERROR(session.CaptureElement(handle, element.data,
                                               element.start, element.duration,
                                               element.descriptor));
  }
  return session.Finish();
}

}  // namespace

Result<Interpretation> StoreValue(BlobStore* store, const MediaValue& value,
                                  const std::string& name,
                                  const StoreOptions& options) {
  obs::ScopedSpan span("codec.store_value");
  struct Visitor {
    BlobStore* store;
    const std::string& name;
    const StoreOptions& options;

    Result<Interpretation> operator()(const AudioBuffer& audio) {
      return StoreAudio(store, audio, name, options);
    }
    Result<Interpretation> operator()(const VideoValue& video) {
      return StoreVideo(store, video, name, options);
    }
    Result<Interpretation> operator()(const Image& image) {
      return StoreImage(store, image, name, options);
    }
    Result<Interpretation> operator()(const MidiSequence& midi) {
      auto stream = midi.ToEventStream();
      if (!stream.ok()) return stream.status();
      return StoreStreamVerbatim(store, *stream, name);
    }
    Result<Interpretation> operator()(const AnimationScene& scene) {
      auto stream = scene.ToSceneStream();
      if (!stream.ok()) return stream.status();
      return StoreStreamVerbatim(store, *stream, name);
    }
    Result<Interpretation> operator()(const TimedStream& stream) {
      return StoreStreamVerbatim(store, stream, name);
    }
  };
  return std::visit(Visitor{store, name, options}, value);
}

}  // namespace tbm
