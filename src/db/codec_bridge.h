#ifndef TBM_DB_CODEC_BRIDGE_H_
#define TBM_DB_CODEC_BRIDGE_H_

#include <string>

#include "derive/value.h"
#include "interp/interpretation.h"

namespace tbm {

/// The bridge between stored form and working form of media objects.
///
/// Downward (Figure 5), interpretation turns BLOB bytes into timed
/// streams; DecodeStream turns a timed stream into the typed value
/// derivations operate on (PCM buffers, RGB frame sequences, MIDI
/// sequences, scenes). Upward, StoreValue expands a value back into an
/// encoded BLOB with a permanently associated interpretation — the
/// paper's "expand derived objects to produce actual (i.e.,
/// non-derived) objects".

/// Decodes a materialized timed stream into its typed media value,
/// dispatching on the stream's media type name:
///  - "audio/pcm", "audio/pcm-block" → AudioBuffer
///  - "audio/adpcm"                  → AudioBuffer (blocks decoded)
///  - "video/raw", "video/tjpeg", "video/tmpeg" → VideoValue
///  - "image/raw", "image/tjpeg"     → Image (single-element stream)
///  - "music/midi"                   → MidiSequence
///  - "animation/scene"              → AnimationScene (scene stream)
Result<MediaValue> DecodeStream(const TimedStream& stream);

/// How StoreValue encodes values.
struct StoreOptions {
  /// Video codec: "tjpeg" (intraframe) or "tmpeg" (interframe) or
  /// "raw".
  std::string video_codec = "tjpeg";
  int video_quality = 50;   ///< Codec quality knob for lossy video.
  int key_interval = 12;    ///< TMPEG key spacing.
  bool bidirectional = false;  ///< TMPEG out-of-order group coding.
  bool motion_compensation = false;  ///< TMPEG block motion search.
  /// Named quality factor recorded on descriptors (informational).
  std::string quality_factor;
};

/// Expands `value` into a fresh BLOB of `store` and returns the
/// interpretation exposing it as object `name`.
Result<Interpretation> StoreValue(BlobStore* store, const MediaValue& value,
                                  const std::string& name,
                                  const StoreOptions& options = {});

}  // namespace tbm

#endif  // TBM_DB_CODEC_BRIDGE_H_
