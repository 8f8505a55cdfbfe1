#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <random>

namespace tbm::obs {

namespace {

void AppendEscaped(std::string* out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') *out += '\\';
    *out += *p;
  }
}

#ifndef TBM_OBS_DISABLED
uint64_t Random64() {
  static std::mutex mu;
  static std::mt19937_64 rng = [] {
    std::random_device rd;
    return std::mt19937_64((uint64_t(rd()) << 32) ^ rd());
  }();
  std::lock_guard<std::mutex> lock(mu);
  return rng();
}
#endif

}  // namespace

uint64_t NewTraceId() {
#ifdef TBM_OBS_DISABLED
  return 0;
#else
  uint64_t id;
  do {
    id = Random64();
  } while (id == 0);
  return id;
#endif
}

std::string ToChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[224];
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, span.name != nullptr ? span.name : "?");
    std::snprintf(
        buf, sizeof(buf),
        "\",\"cat\":\"tbm\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"trace\":%llu}}",
        static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(span.duration_ns) / 1e3, span.thread_id,
        (unsigned long long)span.span_id, (unsigned long long)span.parent_id,
        (unsigned long long)span.trace_id);
    out += buf;
  }
  out += "]}";
  return out;
}

std::vector<SpanRecord> SpansForTrace(const std::vector<SpanRecord>& spans,
                                      uint64_t trace_id) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == trace_id) out.push_back(span);
  }
  return out;
}

Status WriteChromeTrace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::string json = ToChromeTraceJson(spans);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output file " + path);
  }
  size_t written =
      json.empty() ? 0 : std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  if (written != json.size() || rc != 0) {
    return Status::IOError("short write to trace file " + path);
  }
  return Status::OK();
}

#ifndef TBM_OBS_DISABLED

namespace {

/// Per-thread stack top for parent linking (shared across tracers; in
/// practice one tracer is live per instrumented code path).
thread_local uint64_t tls_current_span = 0;

/// The trace id the thread's innermost live span belongs to. Spans
/// nested under a trace-adopting span inherit it automatically.
thread_local uint64_t tls_current_trace = 0;

std::atomic<uint64_t> g_next_tracer_uid{1};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Seqlock-guarded record slot. Every field is an atomic, so the
/// single-writer/any-reader protocol is data-race-free: the writer
/// marks the slot busy (odd seq), publishes the fields, then stamps the
/// generation (even seq); readers accept a slot only if the generation
/// matches before and after reading the fields.
struct Tracer::Slot {
  std::atomic<uint64_t> seq{0};  ///< 2n+1 = writing record n; 2n+2 = done.
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> parent_id{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> duration_ns{0};
};

struct Tracer::ThreadBuffer {
  uint32_t thread_id = 0;
  std::atomic<uint64_t> cursor{0};       ///< Records ever written.
  std::atomic<uint64_t> clear_below{0};  ///< Collect() ignores older records.
  std::array<Slot, kRingCapacity> slots;
};

struct Tracer::FreeRings {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> rings;
};

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;  // Never destroyed: spans on
  return *tracer;                      // exiting threads must stay safe.
}

Tracer::Tracer()
    : uid_(g_next_tracer_uid.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(SteadyNowNs()),
      free_rings_(std::make_shared<FreeRings>()) {
  // Seed span ids with a random high-32-bit base so ids minted in
  // different processes (client and server of one trace) don't collide.
  next_span_id_.store((Random64() << 32) | 1, std::memory_order_relaxed);
}

Tracer::~Tracer() = default;

int64_t Tracer::NowNs() const { return SteadyNowNs() - epoch_ns_; }

const char* Tracer::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& owned : interned_) {
    if (*owned == name) return owned->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(name));
  return interned_.back()->c_str();
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  // One entry per tracer this thread records into. When the thread
  // exits, each entry hands its ring to its tracer's free list.
  struct CacheEntry {
    uint64_t uid;
    std::weak_ptr<FreeRings> free_rings;
    std::shared_ptr<ThreadBuffer> buffer;

    CacheEntry(uint64_t uid, std::weak_ptr<FreeRings> free_rings,
               std::shared_ptr<ThreadBuffer> buffer)
        : uid(uid),
          free_rings(std::move(free_rings)),
          buffer(std::move(buffer)) {}
    CacheEntry(CacheEntry&&) = default;  // Leaves `buffer` null.
    CacheEntry(const CacheEntry&) = delete;
    CacheEntry& operator=(const CacheEntry&) = delete;
    CacheEntry& operator=(CacheEntry&&) = delete;
    ~CacheEntry() {
      if (buffer == nullptr) return;
      if (std::shared_ptr<FreeRings> free = free_rings.lock()) {
        std::lock_guard<std::mutex> lock(free->mu);
        free->rings.push_back(std::move(buffer));
      }
    }
  };
  thread_local std::vector<CacheEntry> tls_buffers;
  for (const CacheEntry& entry : tls_buffers) {
    if (entry.uid == uid_) return entry.buffer.get();
  }
  std::shared_ptr<ThreadBuffer> buffer;
  {
    std::lock_guard<std::mutex> lock(free_rings_->mu);
    if (!free_rings_->rings.empty()) {
      buffer = std::move(free_rings_->rings.back());
      free_rings_->rings.pop_back();
    }
  }
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread_id = static_cast<uint32_t>(buffers_.size() + 1);
    buffers_.push_back(buffer);
  }
  tls_buffers.emplace_back(uid_, free_rings_, std::move(buffer));
  return tls_buffers.back().buffer.get();
}

void Tracer::Record(ThreadBuffer* buffer, const char* name, uint64_t span_id,
                    uint64_t parent_id, uint64_t trace_id, int64_t start_ns,
                    int64_t duration_ns) {
  uint64_t index = buffer->cursor.load(std::memory_order_relaxed);
  Slot& slot = buffer->slots[index % kRingCapacity];
  slot.seq.store(2 * index + 1, std::memory_order_relaxed);
  // The release fence orders the busy marker before the field stores:
  // a reader that observes any new field value will also observe the
  // odd seq (or a later one) and discard the slot.
  std::atomic_thread_fence(std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.span_id.store(span_id, std::memory_order_relaxed);
  slot.parent_id.store(parent_id, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.seq.store(2 * index + 2, std::memory_order_release);
  buffer->cursor.store(index + 1, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers) {
    uint64_t end = buffer->cursor.load(std::memory_order_acquire);
    uint64_t begin = end > kRingCapacity ? end - kRingCapacity : 0;
    begin = std::max(begin, buffer->clear_below.load(std::memory_order_acquire));
    for (uint64_t i = begin; i < end; ++i) {
      const Slot& slot = buffer->slots[i % kRingCapacity];
      if (slot.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
      SpanRecord record;
      record.name = slot.name.load(std::memory_order_relaxed);
      record.span_id = slot.span_id.load(std::memory_order_relaxed);
      record.parent_id = slot.parent_id.load(std::memory_order_relaxed);
      record.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      record.start_ns = slot.start_ns.load(std::memory_order_relaxed);
      record.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
      record.thread_id = buffer->thread_id;
      // Pairs with the writer's release fence: if any field above came
      // from a newer record, this re-check sees its odd/newer seq.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != 2 * i + 2) continue;
      out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    buffer->clear_below.store(buffer->cursor.load(std::memory_order_acquire),
                              std::memory_order_release);
  }
}

uint64_t Tracer::CurrentSpanId() { return tls_current_span; }

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : ScopedSpan(tracer, name, tls_current_span) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent_id)
    : ScopedSpan(tracer, name, /*trace_id=*/0, parent_id) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t trace_id,
                       uint64_t parent_id)
    : tracer_(tracer), buffer_(nullptr), name_(name), parent_id_(parent_id) {
  if (!tracer_->enabled()) {
    span_id_ = 0;
    trace_id_ = 0;
    saved_current_ = 0;
    saved_trace_ = 0;
    start_ns_ = 0;
    return;
  }
  // Take the ring when the span opens, not when it closes: a thread
  // whose span was open while another thread recorded and exited must
  // not inherit that thread's ring, and with it its id.
  buffer_ = tracer_->BufferForThisThread();
  span_id_ = tracer_->next_span_id_.fetch_add(1, std::memory_order_relaxed);
  trace_id_ = trace_id != 0 ? trace_id : tls_current_trace;
  saved_current_ = tls_current_span;
  saved_trace_ = tls_current_trace;
  tls_current_span = span_id_;
  tls_current_trace = trace_id_;
  start_ns_ = tracer_->NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_id_ == 0) return;
  int64_t duration = tracer_->NowNs() - start_ns_;
  tls_current_span = saved_current_;
  tls_current_trace = saved_trace_;
  Tracer::Record(buffer_, name_, span_id_, parent_id_, trace_id_, start_ns_,
                 duration);
}

#endif  // !TBM_OBS_DISABLED

}  // namespace tbm::obs
