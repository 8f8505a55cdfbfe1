#include "serve/connection.h"

#include <utility>

#include "base/macros.h"

namespace tbm::serve {

namespace {

constexpr std::chrono::milliseconds kSendTimeout{5000};
constexpr std::chrono::milliseconds kResponseTimeout{30000};

const char* ClientSpanName(RequestType type) {
  switch (type) {
    case RequestType::kOpen:
      return "client.open";
    case RequestType::kRead:
      return "client.read";
    case RequestType::kSeek:
      return "client.seek";
    case RequestType::kStats:
      return "client.stats";
    case RequestType::kClose:
      return "client.close";
    case RequestType::kTelemetry:
      return "client.telemetry";
    case RequestType::kWindow:
      return "client.window";
  }
  return "client.request";
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection

std::unique_ptr<Connection> Connect(std::unique_ptr<Transport> transport) {
  return std::unique_ptr<Connection>(new Connection(std::move(transport)));
}

Connection::Connection(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)), trace_id_(obs::NewTraceId()) {
  pump_ = std::thread([this] { Pump(); });
}

Connection::~Connection() {
  // Closing the transport fails the pump's next read, which runs
  // Fail() and wakes every waiter before the thread exits.
  transport_->Close();
  if (pump_.joinable()) pump_.join();
}

void Connection::Pump() {
  FrameAssembler assembler(kMaxFrameBytes);
  uint8_t buf[16384];
  for (;;) {
    auto n = transport_->ReadSome(buf, sizeof(buf));
    if (!n.ok()) {
      Fail(n.status());
      return;
    }
    if (*n == 0) {
      // Nothing buffered: park until the server sends (or the
      // transport closes, which reports readable).
      (void)WaitReadable(*transport_, std::chrono::milliseconds(100));
      continue;
    }
    assembler.Ingest(ByteSpan(buf, *n));
    for (;;) {
      auto next = assembler.Next();
      if (!next.ok()) {
        Fail(next.status());
        return;
      }
      if (!next->has_value()) break;
      Frame frame = std::move(**next);
      std::shared_ptr<Inbox> inbox;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inboxes_.find(frame.header.stream_id);
        if (it != inboxes_.end()) inbox = it->second;
      }
      if (inbox == nullptr) continue;  // Stream already forgotten.
      {
        std::lock_guard<std::mutex> lock(inbox->mu);
        inbox->payloads.push_back(std::move(frame.payload));
      }
      inbox->cv.notify_all();
    }
  }
}

void Connection::Fail(Status status) {
  std::vector<std::shared_ptr<Inbox>> inboxes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) {
      status_ = status.ok() ? Status::IOError("connection closed") : status;
    }
    inboxes.reserve(inboxes_.size());
    for (auto& [id, inbox] : inboxes_) inboxes.push_back(inbox);
  }
  for (auto& inbox : inboxes) {
    // Lock before notifying: a waiter between its predicate check and
    // its sleep would otherwise miss the wakeup forever.
    std::lock_guard<std::mutex> lock(inbox->mu);
    inbox->cv.notify_all();
  }
}

Status Connection::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

Status Connection::SendWire(Bytes wire) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return BlockingSend(*transport_, wire, kSendTimeout);
}

std::shared_ptr<Connection::Inbox> Connection::InboxFor(uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = inboxes_[stream_id];
  if (slot == nullptr) slot = std::make_shared<Inbox>();
  return slot;
}

void Connection::ForgetStream(uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(mu_);
  inboxes_.erase(stream_id);
}

Result<Response> Connection::RoundTrip(uint64_t stream_id, Request request,
                                       size_t* payload_bytes) {
  // The round-trip span covers encode + wire + server work + decode —
  // the client's view of request latency. Its id rides along as the
  // server's parent, so the server span nests inside it on the merged
  // timeline.
  uint64_t enclosing = obs::Tracer::CurrentSpanId();
  obs::ScopedSpan span(ClientSpanName(request.type), trace_id_, enclosing);
  if (span.span_id() != 0 && trace_id_ != 0) {
    request.trace.trace_id = trace_id_;
    request.trace.parent_span_id = span.span_id();
  }

  auto inbox = InboxFor(stream_id);
  FrameHeader header;
  header.stream_id = stream_id;
  TBM_RETURN_IF_ERROR(SendWire(EncodeFrame(header, EncodeRequest(request))));

  Bytes payload;
  {
    std::unique_lock<std::mutex> lock(inbox->mu);
    bool got = inbox->cv.wait_for(lock, kResponseTimeout, [&] {
      if (!inbox->payloads.empty()) return true;
      std::lock_guard<std::mutex> state(mu_);
      return !status_.ok();
    });
    if (!inbox->payloads.empty()) {
      payload = std::move(inbox->payloads.front());
      inbox->payloads.pop_front();
    } else {
      if (got) {
        std::lock_guard<std::mutex> state(mu_);
        return status_;
      }
      return Status::ResourceExhausted(
          "timed out waiting for response on stream " +
          std::to_string(stream_id));
    }
  }
  if (payload_bytes != nullptr) *payload_bytes = payload.size();

  TBM_ASSIGN_OR_RETURN(Response response, DecodeResponse(payload));
  if (!response.status.ok()) return response.status;
  if (response.type != request.type) {
    return Status::Corruption(
        "response type " + std::string(RequestTypeToString(response.type)) +
        " does not match request " +
        std::string(RequestTypeToString(request.type)));
  }
  return response;
}

Status Connection::SendOneWay(uint64_t stream_id, const Request& request) {
  FrameHeader header;
  header.stream_id = stream_id;
  return SendWire(EncodeFrame(header, EncodeRequest(request)));
}

Result<std::unique_ptr<StreamHandle>> Connection::OpenStream(
    const std::string& object_name, StreamQos qos) {
  TBM_RETURN_IF_ERROR(ok());
  uint64_t stream_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stream_id = next_stream_id_++;
  }
  Request request;
  request.type = RequestType::kOpen;
  request.object_name = object_name;
  request.qos = qos;
  auto response = RoundTrip(stream_id, std::move(request));
  if (!response.ok()) {
    ForgetStream(stream_id);
    return response.status();
  }
  return std::unique_ptr<StreamHandle>(
      new StreamHandle(this, stream_id, qos, response->open));
}

Result<obs::MetricsSnapshot> Connection::Telemetry() {
  TBM_RETURN_IF_ERROR(ok());
  // TELEMETRY rides the control pseudo-stream (id 0); serialize so
  // concurrent scrapes cannot steal each other's response.
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  Request request;
  request.type = RequestType::kTelemetry;
  TBM_ASSIGN_OR_RETURN(Response response, RoundTrip(0, std::move(request)));
  return std::move(response.telemetry);
}

// ---------------------------------------------------------------------------
// StreamHandle

StreamHandle::~StreamHandle() { (void)Close(); }

Result<ReadBatch> StreamHandle::Read(uint64_t max_elements) {
  if (closed_) return Status::FailedPrecondition("stream is closed");
  Request request;
  request.type = RequestType::kRead;
  request.session_id = info_.session_id;
  request.max_elements = max_elements;
  size_t payload_bytes = 0;
  TBM_ASSIGN_OR_RETURN(
      Response response,
      connection_->RoundTrip(stream_id_, std::move(request), &payload_bytes));
  if (qos_.window_bytes > 0) {
    // Replenish what this batch consumed: the server debited the
    // response frame's payload size from the window before sending.
    (void)GrantWindow(payload_bytes);
  }
  return std::move(response.read);
}

Result<uint64_t> StreamHandle::Seek(uint64_t element) {
  if (closed_) return Status::FailedPrecondition("stream is closed");
  Request request;
  request.type = RequestType::kSeek;
  request.session_id = info_.session_id;
  request.target_element = element;
  TBM_ASSIGN_OR_RETURN(Response response,
                       connection_->RoundTrip(stream_id_, std::move(request)));
  return response.seek_position;
}

Result<SessionStatsWire> StreamHandle::Stats() {
  if (closed_) return Status::FailedPrecondition("stream is closed");
  Request request;
  request.type = RequestType::kStats;
  request.session_id = info_.session_id;
  TBM_ASSIGN_OR_RETURN(Response response,
                       connection_->RoundTrip(stream_id_, std::move(request)));
  return response.stats;
}

Status StreamHandle::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Request request;
  request.type = RequestType::kClose;
  request.session_id = info_.session_id;
  auto response = connection_->RoundTrip(stream_id_, std::move(request));
  connection_->ForgetStream(stream_id_);
  if (!response.ok()) return response.status();
  return Status::OK();
}

Status StreamHandle::GrantWindow(uint64_t bytes) {
  if (closed_) return Status::FailedPrecondition("stream is closed");
  if (bytes == 0) return Status::OK();
  Request request;
  request.type = RequestType::kWindow;
  request.session_id = info_.session_id;
  request.window_delta = bytes;
  return connection_->SendOneWay(stream_id_, request);
}

}  // namespace tbm::serve
