// Streaming read-pipeline ablation: the tentpole acceptance check for
// the chunked-read + prefetch + retry stack. A TJPEG clip is stored in
// a cold FileBlobStore wrapped in a FaultInjectingStore that models a
// mid-90s sequential device (fixed per-request latency plus a per-KiB
// transfer cost), and the same object is then expanded to frames four
// ways:
//
//  - whole:    one ranged read of the entire BLOB, slice, decode —
//              maximum batching, whole object resident;
//  - sync:     Interpretation::Materialize (one ranged read per
//              element) + DecodeStream — the direct read path;
//  - depth N:  MaterializeStreamed with chunked reads and a prefetch
//              depth of N (N = 1, 4, 16) + DecodeStream — the path
//              MediaDatabase::Materialize runs.
//
// A sparse section reads a 10-frame object placed after 4 MiB of other
// bytes in its BLOB, directly and streamed at depth 4: the streamed
// read must touch only the object's own chunks, not the BLOB prefix.
//
// A last section plays the clip through PlayStreamed against a 5%
// transient read-fault rate with retries enabled, demonstrating the
// zero-abort acceptance criterion.
//
// Prints a JSON object; `-o <file>` also writes it to a file (the
// committed BENCH_streaming.json at the repo root is one such run).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "base/thread_pool.h"
#include "bench/bench_util.h"
#include "blob/fault_store.h"
#include "blob/file_store.h"
#include "codec/synthetic.h"
#include "db/codec_bridge.h"
#include "interp/capture.h"
#include "obs/metrics.h"
#include "playback/streaming.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr size_t kFrames = 256;
constexpr size_t kSparseFrames = 10;
constexpr size_t kSparsePrefixBytes = 4 << 20;
constexpr int kRepetitions = 3;  // Keep the min: device latency is
                                 // injected, so runs are near-identical
                                 // and the min sheds scheduler noise.

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

VideoValue MakeClip() {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(128, 96, kFrames, 11);
  return video;
}

size_t FrameCount(const MediaValue& value) {
  return std::get<VideoValue>(value).frames.size();
}

/// Baseline A: one ranged read of the whole BLOB, then slice elements
/// out of the buffer and decode.
double MeasureWholeObjectMs(const BlobStore& store,
                            const Interpretation& interp,
                            const std::string& name) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double start = NowMs();
    uint64_t blob_size = ValueOrDie(store.Size(interp.blob()), "size");
    BufferSlice all =
        ValueOrDie(store.Read(interp.blob(), ByteRange{0, blob_size}), "read");
    const InterpretedObject* object =
        ValueOrDie(interp.FindObject(name), "find");
    TimedStream stream(object->descriptor, object->time_system);
    for (const ElementPlacement& element : object->elements) {
      Bytes data(all.begin() + element.placement.offset,
                 all.begin() + element.placement.end());
      CheckOk(stream.Append({std::move(data), element.start, element.duration,
                             element.descriptor}),
              "append");
    }
    MediaValue value = ValueOrDie(DecodeStream(stream), "decode");
    if (FrameCount(value) != kFrames) std::abort();
    best = std::min(best, NowMs() - start);
  }
  return best;
}

/// Baseline B: the direct path — one ranged read per element, then
/// decode the assembled stream.
double MeasureSyncElementsMs(const BlobStore& store,
                             const Interpretation& interp,
                             const std::string& name, size_t frames) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double start = NowMs();
    TimedStream stream = ValueOrDie(interp.Materialize(store, name), "mat");
    MediaValue value = ValueOrDie(DecodeStream(stream), "decode");
    if (FrameCount(value) != frames) std::abort();
    best = std::min(best, NowMs() - start);
  }
  return best;
}

/// Prefetch counters of the fastest streamed run, read from the obs
/// registry (zero when built with TBM_OBS_DISABLED).
struct PrefetchCounts {
  uint64_t hits = 0;
  uint64_t stalls = 0;

  double HitRate() const {
    return hits + stalls > 0 ? static_cast<double>(hits) / (hits + stalls)
                             : 0.0;
  }
};

PrefetchCounts ReadPrefetchCounts() {
  auto& registry = obs::Registry::Global();
  return {registry.counter("blob.prefetch.hits")->Value(),
          registry.counter("blob.prefetch.stalls")->Value()};
}

/// Streamed: the database's read path — MaterializeStreamed with
/// chunked reads at prefetch depth `depth`, then DecodeStream.
double MeasureStreamedMs(const BlobStore& store, const Interpretation& interp,
                         const std::string& name, size_t frames, int depth,
                         ThreadPool* pool, PrefetchCounts* counts) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const PrefetchCounts before = ReadPrefetchCounts();
    double start = NowMs();
    StreamReadOptions options;
    options.chunk_size = 16 * 1024;
    options.prefetch_depth = depth;
    options.pool = depth > 0 ? pool : nullptr;
    TimedStream stream = ValueOrDie(
        MaterializeStreamed(store, interp, name, options), "streamed");
    MediaValue value = ValueOrDie(DecodeStream(stream), "decode");
    if (FrameCount(value) != frames) std::abort();
    double elapsed = NowMs() - start;
    if (elapsed < best) {
      best = elapsed;
      if (counts != nullptr) {
        const PrefetchCounts after = ReadPrefetchCounts();
        *counts = {after.hits - before.hits, after.stalls - before.stalls};
      }
    }
  }
  return best;
}

/// Stores the first `frames` elements of `clip` as object "tail",
/// placed after `prefix_bytes` of padding in a fresh BLOB.
Interpretation StoreTailObject(BlobStore* store, const TimedStream& clip,
                               size_t frames, size_t prefix_bytes) {
  CaptureSession session =
      ValueOrDie(CaptureSession::Begin(store), "begin capture");
  size_t handle = ValueOrDie(
      session.DeclareObject("tail", clip.descriptor(), clip.time_system()),
      "declare tail");
  CheckOk(session.AppendPadding(prefix_bytes), "pad");
  for (size_t i = 0; i < frames; ++i) {
    const StreamElement& element = clip.at(i);
    CheckOk(session.CaptureElement(handle, element.data, element.start,
                                   element.duration, element.descriptor),
            "capture tail frame");
  }
  return ValueOrDie(session.Finish(), "finish capture");
}

int Run(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) out_path = argv[i + 1];
  }

  std::string dir = std::filesystem::temp_directory_path() /
                    "tbm_bench_streaming";
  std::filesystem::remove_all(dir);

  // The device model: 8 ms per request (seek + rotational + request
  // round-trip) plus 150 us/KiB (~6.5 MB/s sustained) — a mid-90s
  // magnetic disk, the hardware the paper's continuous-media servers
  // ran on. Faults off in the latency section.
  FaultConfig device;
  device.read_latency_fixed_us = 8'000.0;
  device.read_latency_per_kib_us = 150.0;
  FaultInjectingStore store(
      ValueOrDie(FileBlobStore::Open(dir), "open file store"), device);

  Interpretation interp = ValueOrDie(
      StoreValue(store.inner(), MediaValue(MakeClip()), "clip"), "store clip");
  uint64_t blob_bytes = ValueOrDie(store.Size(interp.blob()), "size");

  ThreadPool pool(8);
  double whole_ms = MeasureWholeObjectMs(store, interp, "clip");
  double sync_ms = MeasureSyncElementsMs(store, interp, "clip", kFrames);
  PrefetchCounts depth4_counts;
  double depth1_ms =
      MeasureStreamedMs(store, interp, "clip", kFrames, 1, &pool, nullptr);
  double depth4_ms = MeasureStreamedMs(store, interp, "clip", kFrames, 4,
                                       &pool, &depth4_counts);
  double depth16_ms =
      MeasureStreamedMs(store, interp, "clip", kFrames, 16, &pool, nullptr);
  double speedup = depth4_ms > 0 ? sync_ms / depth4_ms : 0.0;

  // Sparse: the clip's first frames at the tail of a 4 MiB BLOB.
  TimedStream clip =
      ValueOrDie(interp.Materialize(*store.inner(), "clip"), "clip frames");
  Interpretation tail = StoreTailObject(store.inner(), clip, kSparseFrames,
                                        kSparsePrefixBytes);
  uint64_t tail_blob_bytes = ValueOrDie(store.Size(tail.blob()), "size");
  double sparse_direct_ms =
      MeasureSyncElementsMs(store, tail, "tail", kSparseFrames);
  double sparse_depth4_ms = MeasureStreamedMs(store, tail, "tail",
                                              kSparseFrames, 4, &pool, nullptr);

  // Fault tolerance: 5% transient read-fault rate, retries on — the
  // zero-abort criterion. Latency off so retries are cheap to run.
  FaultConfig flaky;
  flaky.read_fault_rate = 0.05;
  flaky.seed = 42;
  FaultInjectingStore faulty(
      ValueOrDie(FileBlobStore::Open(dir), "reopen file store"), flaky);
  StreamReadOptions robust;
  robust.chunk_size = 8 * 1024;
  robust.prefetch_depth = 4;
  robust.pool = &pool;
  robust.policy.max_retries = 8;
  robust.policy.backoff_initial_us = 50.0;
  StreamedPlaybackReport report = ValueOrDie(
      PlayStreamed(faulty, interp, {"clip"}, PlaybackConfig{}, robust),
      "faulty playback");

  char json[4096];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"ablation_streaming\",\n"
      " \"workload\": \"TJPEG clip, %zu frames, %llu KiB BLOB, cold file "
      "store\",\n"
      " \"device_model\": \"8 ms/request + 150 us/KiB (~6.5 MB/s)\",\n"
      " \"whole_object_ms\": %.1f,\n"
      " \"sync_per_element_ms\": %.1f,\n"
      " \"streamed_depth1_ms\": %.1f,\n"
      " \"streamed_depth4_ms\": %.1f,\n"
      " \"streamed_depth16_ms\": %.1f,\n"
      " \"speedup_depth4_vs_sync\": %.2f,\n"
      " \"depth4_prefetch_hit_rate\": %.2f,\n"
      " \"depth4_prefetch_stalls\": %llu,\n"
      " \"sparse_workload\": \"%zu TJPEG frames after %zu KiB of other "
      "data, %llu KiB BLOB\",\n"
      " \"sparse_direct_ms\": %.1f,\n"
      " \"sparse_streamed_depth4_ms\": %.1f,\n"
      " \"fault_rate\": 0.05,\n"
      " \"fault_injected_read_faults\": %llu,\n"
      " \"fault_elements_skipped\": %llu,\n"
      " \"fault_elements_played\": %lld}\n",
      kFrames, static_cast<unsigned long long>(blob_bytes / 1024), whole_ms,
      sync_ms, depth1_ms, depth4_ms, depth16_ms, speedup,
      depth4_counts.HitRate(),
      static_cast<unsigned long long>(depth4_counts.stalls), kSparseFrames,
      kSparsePrefixBytes / 1024,
      static_cast<unsigned long long>(tail_blob_bytes / 1024),
      sparse_direct_ms, sparse_depth4_ms,
      static_cast<unsigned long long>(faulty.injected_read_faults()),
      static_cast<unsigned long long>(report.elements_skipped),
      static_cast<long long>(report.playback.total_elements));
  std::printf("%s", json);
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: depth-4 speedup %.2fx < 1.5x\n", speedup);
    return 1;
  }
  if (sparse_depth4_ms > sparse_direct_ms) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: sparse object streamed %.1f ms > "
                 "direct %.1f ms\n",
                 sparse_depth4_ms, sparse_direct_ms);
    return 1;
  }
  if (report.elements_skipped != 0) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %llu elements skipped\n",
                 static_cast<unsigned long long>(report.elements_skipped));
    return 1;
  }
  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) { return tbm::Run(argc, argv); }
