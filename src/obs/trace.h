#ifndef TBM_OBS_TRACE_H_
#define TBM_OBS_TRACE_H_

/// Span-based tracing: scoped RAII spans with parent links, recorded
/// into lock-free per-thread ring buffers and exportable as Chrome
/// `trace_event` JSON (loadable in chrome://tracing or Perfetto).
///
/// The write path is wait-free for the recording thread: each thread
/// owns a fixed-capacity ring of seqlock-guarded slots (every field is
/// a relaxed atomic, so the collector never blocks a writer and the
/// protocol is ThreadSanitizer-clean). When a ring wraps, the oldest
/// spans are overwritten — tracing bounds its own memory instead of
/// stalling the traced code.
///
/// Span names must outlive the tracer: pass string literals, or
/// Tracer::Intern() a dynamic name once and reuse the pointer.
///
/// With -DTBM_OBS_DISABLED, ScopedSpan is an empty struct and every
/// Tracer method is an inline no-op.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace tbm::obs {

/// One finished span. Times are nanoseconds on the tracer's steady
/// clock, relative to the tracer's construction.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root span.
  uint64_t trace_id = 0;   ///< 0 = no cross-boundary trace (process-local).
  /// Dense per-tracer id of the ring the span was recorded in. A thread
  /// takes a ring when it opens its first span; when the thread exits,
  /// the ring passes to the next thread that starts recording, which
  /// keeps the ring's id. So one id may cover several threads that
  /// never ran at the same time.
  uint32_t thread_id = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};

/// A fresh random nonzero trace id, safe to mint independently in many
/// processes (collision odds are 2^-64 per pair). Returns 0 in
/// TBM_OBS_DISABLED builds, which is how callers know not to attach
/// trace context to outbound requests.
uint64_t NewTraceId();

/// Serializes spans as Chrome trace_event JSON ("X" complete events;
/// ts/dur in microseconds; span/parent/trace ids in args).
std::string ToChromeTraceJson(const std::vector<SpanRecord>& spans);

/// The subset of `spans` belonging to `trace_id`, order preserved —
/// the merged single-request timeline once client- and server-side
/// spans share one collection (loopback) or one merged file.
std::vector<SpanRecord> SpansForTrace(const std::vector<SpanRecord>& spans,
                                      uint64_t trace_id);

/// Writes ToChromeTraceJson(spans) to `path`.
Status WriteChromeTrace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

#ifndef TBM_OBS_DISABLED

class Tracer {
 public:
  /// Spans each thread retains; older spans are overwritten on wrap.
  static constexpr size_t kRingCapacity = 8192;

  /// The process-wide tracer every built-in ScopedSpan records into.
  static Tracer& Global();

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runtime switch: when disabled, ScopedSpan construction is a single
  /// relaxed load and records nothing. Enabled by default.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Returns a stable pointer for a dynamic span name (e.g. an operator
  /// name). Interning is mutex-guarded; do it once per name, not per
  /// span.
  const char* Intern(std::string_view name);

  /// Snapshot of every thread's retained spans, oldest-first per
  /// thread. Never blocks writers; a span being written during
  /// collection is simply skipped.
  std::vector<SpanRecord> Collect() const;

  /// Forgets all recorded spans (writers are unaffected).
  void Clear();

  /// The innermost live span id on the calling thread (0 if none).
  /// Capture this before handing work to another thread and pass it to
  /// ScopedSpan's explicit-parent constructor to keep parent links
  /// across thread hops.
  static uint64_t CurrentSpanId();

 private:
  friend class ScopedSpan;
  struct Slot;
  struct ThreadBuffer;
  struct FreeRings;

  ThreadBuffer* BufferForThisThread();
  static void Record(ThreadBuffer* buffer, const char* name, uint64_t span_id,
                     uint64_t parent_id, uint64_t trace_id, int64_t start_ns,
                     int64_t duration_ns);
  int64_t NowNs() const;

  const uint64_t uid_;  ///< Distinguishes tracers in thread-local caches.
  const int64_t epoch_ns_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_span_id_{1};
  mutable std::mutex mu_;  ///< Guards buffers_ and interned_.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<std::unique_ptr<std::string>> interned_;
  /// Rings of exited threads. Thread-local caches hold it weakly, so a
  /// thread that outlives this tracer frees its ring instead.
  const std::shared_ptr<FreeRings> free_rings_;
};

/// RAII span: records [construction, destruction) into the tracer.
/// Nests naturally — the innermost live span on the thread becomes the
/// parent — or takes an explicit parent id for cross-thread edges. The
/// three-argument form additionally adopts a trace id (e.g. one that
/// arrived over the wire): the span and everything nested under it on
/// this thread records into that trace. trace_id 0 means "inherit the
/// thread's current trace". A span must end on the thread that opened
/// it: it records into that thread's ring.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(&Tracer::Global(), name) {}
  ScopedSpan(const char* name, uint64_t parent_id)
      : ScopedSpan(&Tracer::Global(), name, parent_id) {}
  ScopedSpan(const char* name, uint64_t trace_id, uint64_t parent_id)
      : ScopedSpan(&Tracer::Global(), name, trace_id, parent_id) {}
  ScopedSpan(Tracer* tracer, const char* name);
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent_id);
  ScopedSpan(Tracer* tracer, const char* name, uint64_t trace_id,
             uint64_t parent_id);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when the tracer was disabled at construction).
  uint64_t span_id() const { return span_id_; }

  /// The trace this span records into (0 = process-local).
  uint64_t trace_id() const { return trace_id_; }

 private:
  Tracer* tracer_;
  Tracer::ThreadBuffer* buffer_;  ///< This thread's ring, taken at start.
  const char* name_;
  uint64_t span_id_;
  uint64_t parent_id_;
  uint64_t trace_id_;
  uint64_t saved_current_;
  uint64_t saved_trace_;
  int64_t start_ns_;
};

#else  // TBM_OBS_DISABLED: tracing compiles to nothing.

class Tracer {
 public:
  static constexpr size_t kRingCapacity = 0;

  static Tracer& Global() {
    static Tracer tracer;
    return tracer;
  }

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool) {}
  bool enabled() const { return false; }
  const char* Intern(std::string_view) { return ""; }
  std::vector<SpanRecord> Collect() const { return {}; }
  void Clear() {}
  static uint64_t CurrentSpanId() { return 0; }
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*) {}
  ScopedSpan(const char*, uint64_t) {}
  ScopedSpan(const char*, uint64_t, uint64_t) {}
  ScopedSpan(Tracer*, const char*) {}
  ScopedSpan(Tracer*, const char*, uint64_t) {}
  ScopedSpan(Tracer*, const char*, uint64_t, uint64_t) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t span_id() const { return 0; }
  uint64_t trace_id() const { return 0; }
};

#endif  // TBM_OBS_DISABLED

}  // namespace tbm::obs

#endif  // TBM_OBS_TRACE_H_
