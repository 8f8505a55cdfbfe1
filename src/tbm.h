#ifndef TBM_TBM_H_
#define TBM_TBM_H_

/// Umbrella header: the library's public surface behind one include.
///
/// Applications (examples/, tools/tbmctl) include this instead of
/// picking individual module headers; the per-module headers remain the
/// include points for code *inside* the library, which should stay
/// minimal about its dependencies.
///
/// Layering (each group may depend on those above it):
///
///   base     status/result, bytes, io, checksums, thread pool
///   obs      metrics registry and span tracing (observability)
///   time     rational time, time systems, timecodes
///   blob     uninterpreted byte storage (Def. 1)
///   media    attributes, descriptors, media types, quality
///   stream   timed streams (Def. 4) and their categories
///   codec    coded representations and transforms
///   text     captions and fonts
///   midi     music sequences and synthesis
///   anim     animation scenes
///   interp   interpretations (Def. 2) and capture
///   derive   derivation graphs, operators, engine, expansion cache
///   compose  multimedia objects and timeline algebra
///   playback activities, admission control, playout simulation
///   db       the catalog: entities through multimedia objects

// base
#include "base/buffer.h"
#include "base/bytes.h"
#include "base/crc32.h"
#include "base/durable.h"
#include "base/io.h"
#include "base/macros.h"
#include "base/result.h"
#include "base/sha256.h"
#include "base/simd.h"
#include "base/status.h"
#include "base/thread_pool.h"

// obs
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// time
#include "time/rational.h"
#include "time/time_system.h"
#include "time/timecode.h"

// blob
#include "blob/blob_store.h"
#include "blob/cas_store.h"
#include "blob/chunk_reader.h"
#include "blob/fault_store.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"
#include "blob/prefetcher.h"
#include "blob/read_policy.h"

// media
#include "media/attr.h"
#include "media/descriptor.h"
#include "media/media_type.h"
#include "media/quality.h"

// stream
#include "stream/category.h"
#include "stream/timed_stream.h"

// codec
#include "codec/adpcm.h"
#include "codec/color.h"
#include "codec/dct.h"
#include "codec/export.h"
#include "codec/image.h"
#include "codec/layered.h"
#include "codec/pcm.h"
#include "codec/rle.h"
#include "codec/synthetic.h"
#include "codec/tjpeg.h"
#include "codec/tmpeg.h"

// text
#include "text/captions.h"
#include "text/font.h"

// midi
#include "midi/midi.h"
#include "midi/synth.h"

// anim
#include "anim/animation.h"

// interp
#include "interp/av_capture.h"
#include "interp/capture.h"
#include "interp/index.h"
#include "interp/interpretation.h"
#include "interp/streaming.h"

// derive
#include "derive/cache.h"
#include "derive/graph.h"
#include "derive/operators.h"
#include "derive/plan.h"
#include "derive/scheduler.h"
#include "derive/value.h"

// compose
#include "compose/multimedia.h"
#include "compose/timeline.h"

// playback
#include "playback/activity.h"
#include "playback/admission.h"
#include "playback/simulator.h"
#include "playback/streaming.h"

// db
#include "db/catalog_io.h"
#include "db/codec_bridge.h"
#include "db/database.h"
#include "db/edit_list.h"
#include "db/rights.h"
#include "db/wal/crash_point.h"
#include "db/wal/superblock.h"
#include "db/wal/wal.h"

// serve
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"

#endif  // TBM_TBM_H_
