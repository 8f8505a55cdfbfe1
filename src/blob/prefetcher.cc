#include "blob/prefetcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tbm {

namespace {

struct PrefetchMetrics {
  obs::Counter* hits;
  obs::Counter* stalls;
  obs::Counter* bytes;
  obs::Counter* errors;
  obs::Histogram* stall_us;

  static const PrefetchMetrics& Get() {
    static const PrefetchMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return PrefetchMetrics{registry.counter("blob.prefetch.hits"),
                             registry.counter("blob.prefetch.stalls"),
                             registry.counter("blob.prefetch.bytes"),
                             registry.counter("blob.prefetch.errors"),
                             registry.histogram("blob.prefetch.stall_us")};
    }();
    return metrics;
  }
};

/// Reads one byte of every page of `chunk`, faulting a memory-mapped
/// chunk in on the readahead thread rather than on the consumer.
void TouchPages(const BufferSlice& chunk) {
  constexpr size_t kPage = 4096;
  const volatile uint8_t* bytes = chunk.data();
  for (size_t i = 0; i < chunk.size(); i += kPage) (void)bytes[i];
}

}  // namespace

AsyncPrefetcher::AsyncPrefetcher(std::unique_ptr<ChunkReader> reader,
                                 uint64_t first, uint64_t end,
                                 ThreadPool* pool, int depth,
                                 uint64_t max_inflight_bytes)
    : reader_(std::move(reader)),
      pool_(pool),
      end_(end),
      depth_(depth),
      max_inflight_bytes_(std::max<uint64_t>(1, max_inflight_bytes)),
      next_consume_(first),
      next_schedule_(first) {
  if (pool_ != nullptr && depth_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ScheduleLocked();
  }
}

AsyncPrefetcher::~AsyncPrefetcher() {
  std::unique_lock<std::mutex> lock(mu_);
  // Stop scheduling new work and wait for tasks already on the pool;
  // their closures touch this object, so it cannot die under them.
  next_schedule_ = end_;
  cv_.wait(lock, [&] { return outstanding_tasks_ == 0; });
}

bool AsyncPrefetcher::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_consume_ >= end_;
}

uint64_t AsyncPrefetcher::next_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_consume_;
}

bool AsyncPrefetcher::Ready(uint64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ready_.find(index);
  return it != ready_.end() && it->second.ok();
}

PrefetchStats AsyncPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AsyncPrefetcher::ScheduleLocked() {
  if (pool_ == nullptr || depth_ <= 0) return;
  while (next_schedule_ < end_ &&
         next_schedule_ <
             next_consume_ + static_cast<uint64_t>(depth_)) {
    const uint64_t index = next_schedule_;
    const uint64_t length = reader_->ChunkRange(index).length;
    // Backpressure: always allow one chunk in flight so progress never
    // deadlocks on a chunk larger than the byte budget.
    if (inflight_bytes_ > 0 &&
        inflight_bytes_ + length > max_inflight_bytes_) {
      break;
    }
    inflight_bytes_ += length;
    ++next_schedule_;
    ++outstanding_tasks_;
    pool_->Submit([this, index] {
      obs::ScopedSpan span("blob.prefetch.fetch");
      Result<BufferSlice> result = reader_->ReadChunk(index);
      if (result.ok()) TouchPages(*result);
      std::lock_guard<std::mutex> task_lock(mu_);
      ready_.emplace(index, std::move(result));
      --outstanding_tasks_;
      cv_.notify_all();
    });
  }
}

Result<BufferSlice> AsyncPrefetcher::Next() {
  const auto& metrics = PrefetchMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  if (next_consume_ >= end_) {
    return Status::OutOfRange("prefetcher exhausted (chunk " +
                              std::to_string(end_) + ")");
  }
  const uint64_t index = next_consume_;

  Result<BufferSlice> result = BufferSlice{};
  if (pool_ == nullptr || depth_ <= 0) {
    // Synchronous mode: fetch on the caller's thread.
    lock.unlock();
    result = reader_->ReadChunk(index);
    lock.lock();
  } else {
    ScheduleLocked();
    auto it = ready_.find(index);
    if (it != ready_.end()) {
      ++stats_.hits;
      metrics.hits->Add();
    } else {
      ++stats_.stalls;
      metrics.stalls->Add();
      obs::ScopedSpan span("blob.prefetch.stall");
      int64_t start_ns = obs::NowTicksNs();
      cv_.wait(lock, [&] { return ready_.count(index) > 0; });
      uint64_t waited_us = static_cast<uint64_t>(
          std::max<int64_t>(0, obs::NowTicksNs() - start_ns) / 1000);
      stats_.stall_us += waited_us;
      metrics.stall_us->Record(waited_us);
      it = ready_.find(index);
    }
    result = std::move(it->second);
    ready_.erase(it);
    inflight_bytes_ -= reader_->ChunkRange(index).length;
  }

  ++next_consume_;
  ++stats_.chunks_delivered;
  if (result.ok()) {
    stats_.bytes_delivered += result->size();
    metrics.bytes->Add(result->size());
  } else {
    ++stats_.read_errors;
    metrics.errors->Add();
  }
  ScheduleLocked();
  return result;
}

}  // namespace tbm
