#include "serve/session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/macros.h"
#include "blob/read_policy.h"
#include "obs/metrics.h"

namespace tbm::serve {

namespace {

/// Byte cap per READ batch (bounds frame size and send latency).
constexpr uint64_t kResponseByteCap = 4ull << 20;

/// An element read slower than this lands in the flight recorder as a
/// SLOW_READ event.
constexpr uint64_t kSlowReadUs = 10'000;

}  // namespace

Result<std::unique_ptr<Session>> Session::Create(
    uint64_t id, std::string object_name, const BlobStore* store,
    const Interpretation& interpretation, const std::string& stream_name,
    Config config) {
  TBM_ASSIGN_OR_RETURN(const InterpretedObject* object,
                       interpretation.FindObject(stream_name));
  if (config.stride == 0) {
    return Status::InvalidArgument("stride must be >= 1");
  }
  auto session = std::unique_ptr<Session>(
      new Session(id, std::move(object_name), store, interpretation.blob(),
                  *object, config));
  if (config.stride == 1) {
    // Full fidelity: sequential chunked streaming with readahead.
    TBM_ASSIGN_OR_RETURN(
        session->stream_,
        ElementStream::Open(*store, interpretation, stream_name,
                            config.read_options));
  }
  return session;
}

Session::Session(uint64_t id, std::string object_name, const BlobStore* store,
                 BlobId blob, InterpretedObject object, Config config)
    : id_(id),
      object_name_(std::move(object_name)),
      store_(store),
      blob_(blob),
      object_(std::move(object)),
      config_(config),
      stride_(config.stride),
      degraded_(config.stride > 1),
      booked_(config.booked_bytes_per_second) {
  if (config_.stream_id != 0 || config_.connection_id != 0) {
    flight_.set_label("conn " + std::to_string(config_.connection_id) +
                      " stream " + std::to_string(config_.stream_id) +
                      " session " + std::to_string(id_) + " " + object_name_);
  } else {
    flight_.set_label("session " + std::to_string(id_) + " " + object_name_);
  }
  flight_.Record(obs::FlightEventType::kAdmit,
                 degraded_ ? "admitted degraded" : "admitted", stride_,
                 static_cast<uint64_t>(booked_));
}

void Session::AdoptTrace(uint64_t trace_id) {
  if (trace_id == 0) return;
  trace_id_ = trace_id;
  flight_.Record(obs::FlightEventType::kNote, "adopted client trace",
                 trace_id);
}

Result<Bytes> Session::ReadElementBytes(uint64_t index) {
  // In TBM_OBS_DISABLED builds NowTicksNs() is inline 0 and Record()
  // a no-op, so this timing folds away entirely.
  int64_t start_ns = obs::NowTicksNs();
  auto finish_timing = [&](bool ok) {
    uint64_t elapsed_us =
        static_cast<uint64_t>(
            std::max<int64_t>(0, obs::NowTicksNs() - start_ns)) /
        1000;
    if (!ok) {
      flight_.Record(obs::FlightEventType::kFault,
                     "element read failed after retries", index, elapsed_us);
    } else if (elapsed_us > kSlowReadUs) {
      flight_.Record(obs::FlightEventType::kSlowRead,
                     "element read over threshold", index, elapsed_us);
    }
  };
  // The element stream delivers strictly sequentially; use it while we
  // are aligned with it (stride-1 sessions that never sought).
  if (stream_ != nullptr && stream_->position() == index) {
    auto element = stream_->Next();
    finish_timing(element.ok());
    if (!element.ok()) return element.status();
    return Bytes(element->data.begin(), element->data.end());
  }
  const ElementPlacement& placement =
      object_.elements[static_cast<size_t>(index)];
  auto slice = ReadWithPolicy(*store_, blob_, placement.placement,
                              config_.read_options.policy);
  finish_timing(slice.ok());
  if (!slice.ok()) return slice.status();
  return Bytes(slice->begin(), slice->end());
}

Result<ReadBatch> Session::ReadNext(uint64_t max_elements) {
  if (Terminal()) {
    return Status::FailedPrecondition(
        "session is " + std::string(SessionStateToString(state())));
  }
  if (state() != SessionState::kStreaming) {
    flight_.Record(obs::FlightEventType::kState, "STREAMING", position_);
  }
  state_.store(SessionState::kStreaming, std::memory_order_release);

  ReadBatch batch;
  batch.stride = stride_;
  if (max_elements == 0) max_elements = 1;
  uint64_t batch_bytes = 0;
  while (batch.elements.size() < max_elements &&
         position_ < object_.elements.size()) {
    const ElementPlacement& placement =
        object_.elements[static_cast<size_t>(position_)];
    if (!batch.elements.empty() &&
        batch_bytes + placement.placement.length > kResponseByteCap) {
      break;  // Keep each response frame (and its send latency) bounded.
    }
    auto bytes = ReadElementBytes(position_);
    if (bytes.ok()) {
      WireElement element;
      element.element_number = static_cast<uint64_t>(placement.element_number);
      element.start = placement.start;
      element.duration = placement.duration;
      element.payload = std::move(*bytes);
      batch_bytes += element.payload.size();
      bytes_sent_ += element.payload.size();
      ++delivered_;
      batch.elements.push_back(std::move(element));
    } else {
      // A read that failed after every retry costs the element, not
      // the session: skip it and finish DEGRADED.
      ++skipped_;
      degraded_ = true;
    }
    position_ += stride_;
  }
  if (position_ >= object_.elements.size()) {
    batch.end_of_stream = true;
    Finish();
  }
  batch.stride = stride_;
  return batch;
}

bool Session::CanReadWithoutIo(uint64_t max_elements) const {
  return stream_ != nullptr && stream_->position() == position_ &&
         stream_->Buffered(std::max<uint64_t>(max_elements, 1));
}

Result<uint64_t> Session::SeekTo(uint64_t element) {
  if (Terminal()) {
    return Status::FailedPrecondition(
        "session is " + std::string(SessionStateToString(state())));
  }
  if (element >= object_.elements.size()) {
    return Status::OutOfRange(
        "seek to element " + std::to_string(element) + " of " +
        std::to_string(object_.elements.size()));
  }
  position_ = element;
  stream_.reset();  // The chunk window is sequential; a seek leaves it.
  flight_.Record(obs::FlightEventType::kSeek, "seek", element);
  state_.store(SessionState::kStreaming, std::memory_order_release);
  return position_;
}

void Session::Degrade() {
  if (Terminal()) return;
  uint64_t old_stride = stride_;
  stride_ *= 2;
  degraded_ = true;
  stream_.reset();  // Strided delivery reads placements directly.
  flight_.Record(obs::FlightEventType::kDegrade, "stride doubled", old_stride,
                 stride_);
}

void Session::MarkEvicted(const char* cause) {
  flight_.Record(obs::FlightEventType::kEvict,
                 cause != nullptr ? cause : "server-initiated eviction",
                 position_);
  state_.store(SessionState::kEvicted, std::memory_order_release);
}

void Session::MarkClosed() {
  if (Terminal()) return;
  flight_.Record(obs::FlightEventType::kNote, "client closed early",
                 position_);
  Finish();
}

void Session::Finish() {
  flight_.Record(obs::FlightEventType::kState,
                 degraded_ ? "DEGRADED" : "DONE", delivered_, skipped_);
  state_.store(degraded_ ? SessionState::kDegraded : SessionState::kDone,
               std::memory_order_release);
}

std::string Session::DumpFlight(std::string_view cause) const {
  char header[224];
  std::snprintf(header, sizeof(header),
                "session %llu conn=%llu stream=%llu object=%s state=%s "
                "stride=%u trace=0x%llx\n",
                (unsigned long long)id_,
                (unsigned long long)config_.connection_id,
                (unsigned long long)config_.stream_id, object_name_.c_str(),
                std::string(SessionStateToString(state())).c_str(), stride_,
                (unsigned long long)trace_id_);
  std::string dump = flight_.Dump(cause);
  if (dump.empty()) return dump;  // TBM_OBS_DISABLED: nothing recorded.
  return header + dump;
}

SessionStatsWire Session::StatsWire() const {
  SessionStatsWire stats;
  stats.state = state();
  stats.elements_delivered = delivered_;
  stats.elements_skipped = skipped_;
  stats.bytes_sent = bytes_sent_;
  stats.stride = stride_;
  return stats;
}

}  // namespace tbm::serve
