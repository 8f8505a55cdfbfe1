// Tests of the request-telemetry layer: trace-context propagation
// across the serve wire protocol (with hostile-input decode cases for
// the extension block), the TELEMETRY frame, Prometheus text
// exposition, per-QoS SLO metrics, and flight-recorder dumps from
// sessions that end badly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/io.h"
#include "blob/fault_store.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "interp/capture.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace tbm {
namespace serve {
namespace {

constexpr int kElements = 32;
constexpr int kElementBytes = 1000;

Bytes ElementPayload(int index) {
  Bytes bytes(kElementBytes);
  for (int j = 0; j < kElementBytes; ++j) {
    bytes[static_cast<size_t>(j)] =
        static_cast<uint8_t>(index * 131 + j * 7 + 3);
  }
  return bytes;
}

// One media object "clip": kElements elements of kElementBytes, 10
// ticks/s. With `read_fault_rate` > 0 reads fail at that rate.
std::unique_ptr<MediaDatabase> BuildTelemetryDb(double read_fault_rate = 0.0) {
  std::unique_ptr<BlobStore> store = std::make_unique<MemoryBlobStore>();
  if (read_fault_rate > 0.0) {
    FaultConfig faults;
    faults.read_fault_rate = read_fault_rate;
    faults.seed = 17;
    store = std::make_unique<FaultInjectingStore>(std::move(store), faults);
  }
  auto db = MediaDatabase::CreateWithStore(std::move(store));
  auto capture = CaptureSession::Begin(db->blob_store());
  EXPECT_TRUE(capture.ok());
  MediaDescriptor descriptor;
  descriptor.type_name = "audio/pcm-block";
  descriptor.kind = MediaKind::kAudio;
  auto handle = capture->DeclareObject("clip", descriptor, TimeSystem(10));
  EXPECT_TRUE(handle.ok());
  for (int i = 0; i < kElements; ++i) {
    EXPECT_TRUE(capture->CaptureContiguous(*handle, ElementPayload(i), 1).ok());
  }
  auto interpretation = capture->Finish();
  EXPECT_TRUE(interpretation.ok());
  auto interp_id = db->AddInterpretation("clip_interp", *interpretation);
  EXPECT_TRUE(interp_id.ok());
  EXPECT_TRUE(db->AddMediaObject("clip", *interp_id, "clip").ok());
  return db;
}

// ---------------------------------------------------------------------------
// Trace-context extension block on the wire

TEST(TraceContextTest, RoundTripsOnEveryVerb) {
  for (RequestType type :
       {RequestType::kOpen, RequestType::kRead, RequestType::kSeek,
        RequestType::kStats, RequestType::kClose, RequestType::kTelemetry}) {
    Request request;
    request.type = type;
    request.session_id = 9;
    request.object_name = type == RequestType::kOpen ? "clip" : "";
    request.trace.trace_id = 0xCAFEF00DDEADBEEFull;
    request.trace.parent_span_id = 0x1234000000000042ull;
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(decoded->trace.present());
    EXPECT_EQ(decoded->trace.trace_id, request.trace.trace_id);
    EXPECT_EQ(decoded->trace.parent_span_id, request.trace.parent_span_id);
  }
}

TEST(TraceContextTest, AbsentContextDecodesAbsentAndAddsNoBytes) {
  Request request;
  request.type = RequestType::kRead;
  request.session_id = 3;
  request.max_elements = 8;
  Bytes encoded = EncodeRequest(request);

  Request with_trace = request;
  with_trace.trace.trace_id = 1;
  with_trace.trace.parent_span_id = 2;
  EXPECT_GT(EncodeRequest(with_trace).size(), encoded.size());

  auto decoded = DecodeRequest(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace.present());
  EXPECT_EQ(decoded->trace.trace_id, 0u);
}

TEST(TraceContextTest, UnknownExtensionTagIsSkipped) {
  Request request;
  request.type = RequestType::kStats;
  request.session_id = 5;
  request.trace.trace_id = 77;
  request.trace.parent_span_id = 78;
  Bytes encoded = EncodeRequest(request);

  // A future client appends an extension this decoder has never heard
  // of: tag 9 with a 3-byte body. Forward compatibility says: skip it.
  BinaryWriter extra;
  extra.WriteU8(9);
  Bytes body = {0xAA, 0xBB, 0xCC};
  extra.WriteBytes(body);
  Bytes future = encoded;
  future.insert(future.end(), extra.buffer().begin(), extra.buffer().end());

  auto decoded = DecodeRequest(future);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->session_id, 5u);
  EXPECT_EQ(decoded->trace.trace_id, 77u);  // Known tag still parsed.
}

TEST(TraceContextTest, ZeroExtensionTagRejected) {
  Request request;
  request.type = RequestType::kStats;
  Bytes encoded = EncodeRequest(request);
  encoded.push_back(0x00);
  auto decoded = DecodeRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TraceContextTest, TruncatedExtensionBodyRejected) {
  Request request;
  request.type = RequestType::kStats;
  Bytes encoded = EncodeRequest(request);
  // Tag 1 claiming a 10-byte body with only 1 byte present.
  encoded.push_back(1);
  encoded.push_back(10);
  encoded.push_back(0x01);
  auto decoded = DecodeRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TraceContextTest, TraceBodyWithTrailingBytesRejected) {
  Request request;
  request.type = RequestType::kStats;
  Bytes encoded = EncodeRequest(request);
  // Tag 1 whose body holds the two varints plus a stray byte: a known
  // tag must parse exactly.
  BinaryWriter body;
  body.WriteVarU64(1);
  body.WriteVarU64(2);
  body.WriteU8(0xEE);
  BinaryWriter ext;
  ext.WriteU8(1);
  ext.WriteBytes(body.buffer());
  encoded.insert(encoded.end(), ext.buffer().begin(), ext.buffer().end());
  auto decoded = DecodeRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TraceContextTest, TruncatedTraceVarintRejected) {
  Request request;
  request.type = RequestType::kStats;
  Bytes encoded = EncodeRequest(request);
  // Tag 1 whose 1-byte body is an unterminated varint.
  encoded.push_back(1);
  encoded.push_back(1);
  encoded.push_back(0x80);
  auto decoded = DecodeRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// TELEMETRY frame

obs::MetricsSnapshot SampleSnapshot() {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["serve.admitted"] = 12;
  snapshot.counters["serve.read_bytes{qos=s1}"] = 48000;
  snapshot.counters["serve.read_bytes{qos=s2}"] = 9000;
  snapshot.gauges["serve.sessions"] = 3;
  snapshot.gauges["pool.queue_depth"] = -1;  // Signed survives the wire.
  obs::HistogramSnapshot h;
  h.count = 4;
  h.sum = 1000;
  h.min = 10;
  h.max = 700;
  h.buckets[4] = 2;
  h.buckets[10] = 2;
  snapshot.histograms["serve.read_us{qos=s1}"] = h;
  return snapshot;
}

TEST(TelemetryFrameTest, ResponseRoundTrips) {
  Response response;
  response.type = RequestType::kTelemetry;
  response.telemetry = SampleSnapshot();
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->telemetry.counters, response.telemetry.counters);
  EXPECT_EQ(decoded->telemetry.gauges, response.telemetry.gauges);
  ASSERT_EQ(decoded->telemetry.histograms.size(), 1u);
  const obs::HistogramSnapshot& h =
      decoded->telemetry.histograms.at("serve.read_us{qos=s1}");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1000u);
  EXPECT_EQ(h.min, 10u);
  EXPECT_EQ(h.max, 700u);
  EXPECT_EQ(h.buckets[4], 2u);
  EXPECT_EQ(h.buckets[10], 2u);
}

TEST(TelemetryFrameTest, EveryTruncationRejected) {
  Response response;
  response.type = RequestType::kTelemetry;
  response.telemetry = SampleSnapshot();
  Bytes encoded = EncodeResponse(response);
  // Chopping the frame anywhere after the (type, status) prefix must
  // produce Corruption — never a crash or a silently partial snapshot.
  for (size_t len = 2; len < encoded.size(); ++len) {
    ByteSpan prefix(encoded.data(), len);
    auto decoded = DecodeResponse(prefix);
    ASSERT_FALSE(decoded.ok()) << "length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "length " << len;
  }
  auto whole = DecodeResponse(encoded);
  EXPECT_TRUE(whole.ok());
}

TEST(TelemetryFrameTest, HostileSectionCountRejected) {
  // A frame claiming 2^40 counters in a few bytes of payload.
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(RequestType::kTelemetry));
  writer.WriteU8(0);  // StatusCode::kOk.
  writer.WriteString("");
  writer.WriteVarU64(1ull << 40);
  auto decoded = DecodeResponse(writer.buffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TelemetryFrameTest, HostileBucketCountRejected) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(RequestType::kTelemetry));
  writer.WriteU8(0);
  writer.WriteString("");
  writer.WriteVarU64(0);  // No counters.
  writer.WriteVarU64(0);  // No gauges.
  writer.WriteVarU64(1);  // One histogram...
  writer.WriteString("h");
  writer.WriteVarU64(1);  // count
  writer.WriteVarU64(1);  // sum
  writer.WriteVarU64(1);  // min
  writer.WriteVarU64(1);  // max
  writer.WriteVarU64(1u << 20);  // ...claiming a million buckets.
  auto decoded = DecodeResponse(writer.buffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TelemetryFrameTest, ForeignBucketLayoutStillDecodes) {
  // A peer built with a different (smaller) histogram shape: its two
  // buckets land in ours, nothing rejected.
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(RequestType::kTelemetry));
  writer.WriteU8(0);
  writer.WriteString("");
  writer.WriteVarU64(0);
  writer.WriteVarU64(0);
  writer.WriteVarU64(1);
  writer.WriteString("h");
  writer.WriteVarU64(3);
  writer.WriteVarU64(30);
  writer.WriteVarU64(5);
  writer.WriteVarU64(20);
  writer.WriteVarU64(2);  // Two buckets only.
  writer.WriteVarU64(1);
  writer.WriteVarU64(2);
  auto decoded = DecodeResponse(writer.buffer());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const obs::HistogramSnapshot& h = decoded->telemetry.histograms.at("h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 2u);
}

TEST(TelemetryFrameTest, TelemetryRequestTrailingBytesRejected) {
  Request request;
  request.type = RequestType::kTelemetry;
  Bytes encoded = EncodeRequest(request);
  encoded.push_back(0xAA);  // Parses as a tag whose body is missing.
  auto decoded = DecodeRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Metric-name parsing and Prometheus exposition

TEST(MetricExportTest, ParseMetricNameSplitsLabeledNames) {
  obs::ParsedMetricName parsed =
      obs::ParseMetricName("serve.read_us{qos=s2}");
  EXPECT_EQ(parsed.base, "serve.read_us");
  EXPECT_EQ(parsed.label_key, "qos");
  EXPECT_EQ(parsed.label_value, "s2");
  EXPECT_TRUE(parsed.labeled());

  obs::ParsedMetricName plain = obs::ParseMetricName("serve.admitted");
  EXPECT_EQ(plain.base, "serve.admitted");
  EXPECT_FALSE(plain.labeled());

  // Malformed suffixes stay whole rather than mis-splitting.
  EXPECT_FALSE(obs::ParseMetricName("weird{novalue}").labeled());
  EXPECT_FALSE(obs::ParseMetricName("{k=v}").labeled());
  EXPECT_FALSE(obs::ParseMetricName("trailing{k=v").labeled());
  EXPECT_FALSE(obs::ParseMetricName("").labeled());
}

TEST(MetricExportTest, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::PrometheusName("serve.read_us"), "tbm_serve_read_us");
  EXPECT_EQ(obs::PrometheusName("pool.queue-depth"), "tbm_pool_queue_depth");
}

TEST(MetricExportTest, PrometheusTextRendersAllFamilies) {
  std::string text = obs::ToPrometheusText(SampleSnapshot());
  // One TYPE line per family, shared by labeled variants.
  EXPECT_NE(text.find("# TYPE tbm_serve_read_bytes counter"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE tbm_serve_read_bytes counter"),
            text.rfind("# TYPE tbm_serve_read_bytes counter"));
  EXPECT_NE(text.find("tbm_serve_read_bytes{qos=\"s1\"} 48000"),
            std::string::npos);
  EXPECT_NE(text.find("tbm_serve_read_bytes{qos=\"s2\"} 9000"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tbm_serve_sessions gauge"), std::string::npos);
  EXPECT_NE(text.find("tbm_pool_queue_depth -1"), std::string::npos);
  // Histogram: cumulative le buckets, then sum and count.
  EXPECT_NE(text.find("# TYPE tbm_serve_read_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tbm_serve_read_us_bucket{qos=\"s1\",le=\"16\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("tbm_serve_read_us_bucket{qos=\"s1\",le=\"1024\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("tbm_serve_read_us_bucket{qos=\"s1\",le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("tbm_serve_read_us_sum{qos=\"s1\"} 1000"),
            std::string::npos);
  EXPECT_NE(text.find("tbm_serve_read_us_count{qos=\"s1\"} 4"),
            std::string::npos);
  // Deterministic for a given snapshot.
  EXPECT_EQ(text, obs::ToPrometheusText(SampleSnapshot()));
}

// ---------------------------------------------------------------------------
// End-to-end over loopback

#ifndef TBM_OBS_DISABLED

TEST(ServeTraceTest, LoopbackReadProducesMergedTrace) {
  obs::Tracer::Global().Clear();
  auto db = BuildTelemetryDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  const uint64_t trace_id = connection->trace_id();
  ASSERT_NE(trace_id, 0u);

  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok());
  auto batch = (*stream)->Read(64);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->end_of_stream);
  ASSERT_TRUE((*stream)->Close().ok());
  server.Stop();

  // One collection holds both sides (loopback = one process); the
  // connection's trace id selects the merged timeline for this session.
  std::vector<obs::SpanRecord> spans =
      obs::SpansForTrace(obs::Tracer::Global().Collect(), trace_id);
  ASSERT_FALSE(spans.empty());

  auto find = [&](const char* name) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& span : spans) {
      if (std::string(span.name) == name) return &span;
    }
    return nullptr;
  };
  const obs::SpanRecord* client_open = find("client.open");
  const obs::SpanRecord* serve_open = find("serve.open");
  const obs::SpanRecord* client_read = find("client.read");
  const obs::SpanRecord* serve_read = find("serve.read");
  const obs::SpanRecord* read_next = find("serve.read_next");
  ASSERT_NE(client_open, nullptr);
  ASSERT_NE(serve_open, nullptr);
  ASSERT_NE(client_read, nullptr);
  ASSERT_NE(serve_read, nullptr);
  ASSERT_NE(read_next, nullptr);

  // Server-side spans parent into the client's round-trip spans, and
  // the worker-pool hop keeps the chain: read -> serve.read ->
  // serve.read_next.
  EXPECT_EQ(serve_open->parent_id, client_open->span_id);
  EXPECT_EQ(serve_read->parent_id, client_read->span_id);
  EXPECT_EQ(read_next->parent_id, serve_read->span_id);
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id);
  }

  // The merged timeline exports with trace ids in the args.
  std::string json = obs::ToChromeTraceJson(spans);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("client.read"), std::string::npos);
  EXPECT_NE(json.find("serve.read_next"), std::string::npos);
}

TEST(ServeTraceTest, TwoClientsKeepDistinctTraces) {
  obs::Tracer::Global().Clear();
  auto db = BuildTelemetryDb();
  MediaServer server(db.get());
  auto [c1, s1] = CreateLoopbackPair();
  auto [c2, s2] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(s1)).ok());
  ASSERT_TRUE(server.Serve(std::move(s2)).ok());
  auto alpha = Connect(std::move(c1));
  auto beta = Connect(std::move(c2));
  ASSERT_NE(alpha->trace_id(), beta->trace_id());
  auto alpha_stream = alpha->OpenStream("clip");
  auto beta_stream = beta->OpenStream("clip");
  ASSERT_TRUE(alpha_stream.ok());
  ASSERT_TRUE(beta_stream.ok());
  ASSERT_TRUE((*alpha_stream)->Close().ok());
  ASSERT_TRUE((*beta_stream)->Close().ok());
  server.Stop();

  std::vector<obs::SpanRecord> all = obs::Tracer::Global().Collect();
  std::vector<obs::SpanRecord> alpha_spans =
      obs::SpansForTrace(all, alpha->trace_id());
  std::vector<obs::SpanRecord> beta_spans =
      obs::SpansForTrace(all, beta->trace_id());
  ASSERT_FALSE(alpha_spans.empty());
  ASSERT_FALSE(beta_spans.empty());
  for (const obs::SpanRecord& span : alpha_spans) {
    EXPECT_EQ(span.trace_id, alpha->trace_id());
  }
}

TEST(QosMetricsTest, ReadSloRecordedPerClass) {
  auto& registry = obs::Registry::Global();
  uint64_t admitted_before =
      registry.counter("serve.admitted", "qos", "s1")->Value();
  uint64_t reads_before =
      registry.histogram("serve.read_us", "qos", "s1")->Snapshot().count;
  uint64_t bytes_before =
      registry.counter("serve.read_bytes", "qos", "s1")->Value();

  auto db = BuildTelemetryDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok());
  // Uncontended: full fidelity = class s1.
  ASSERT_EQ((*stream)->info().stride, 1u);
  bool end_of_stream = false;
  while (!end_of_stream) {
    auto batch = (*stream)->Read(8);
    ASSERT_TRUE(batch.ok());
    end_of_stream = batch->end_of_stream;
  }
  ASSERT_TRUE((*stream)->Close().ok());
  server.Stop();

  EXPECT_EQ(registry.counter("serve.admitted", "qos", "s1")->Value(),
            admitted_before + 1);
  EXPECT_GE(registry.histogram("serve.read_us", "qos", "s1")
                ->Snapshot()
                .count,
            reads_before + 4);  // 32 elements in batches of 8.
  EXPECT_GT(registry.counter("serve.read_bytes", "qos", "s1")->Value(),
            bytes_before + kElements * kElementBytes / 2);
}

TEST(QosMetricsTest, DeadlineMissCounted) {
  auto& registry = obs::Registry::Global();
  uint64_t misses_before =
      registry.counter("serve.deadline_miss", "qos", "s1")->Value();

  auto db = BuildTelemetryDb();
  ServeConfig config;
  config.read_deadline_us = 1;  // Unmeetable: every READ misses.
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok());
  auto batch = (*stream)->Read(8);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*stream)->Close().ok());
  server.Stop();

  EXPECT_GE(registry.counter("serve.deadline_miss", "qos", "s1")->Value(),
            misses_before + 1);
}

TEST(FlightDumpTest, EvictedSessionLeavesDumpNamingCause) {
  auto db = BuildTelemetryDb();
  ServeConfig config;
  config.stall_timeout = std::chrono::milliseconds(100);
  MediaServer server(db.get(), config);
  // The kernel floors the 128-byte request at 4,608 B, which holds
  // 4,480 B: far less than the 16 x 1,000 B batch read below.
  LoopbackOptions options;
  options.buffer_bytes = 128;
  auto [client_end, server_end] = CreateLoopbackPair(options);
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  // Speak raw frames on stream 1 so the transport is never drained by
  // a client pump thread — the point is to wedge the server's writes.
  constexpr uint64_t kTraceId = 0xFEEDFACEu;
  FrameHeader header;
  header.stream_id = 1;
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  open.trace.trace_id = kTraceId;
  open.trace.parent_span_id = 1;
  ASSERT_TRUE(
      WriteFrame(*client_end, EncodeFrameBody(header, EncodeRequest(open)))
          .ok());
  auto open_body = ReadFrame(*client_end, kMaxFrameBytes);
  ASSERT_TRUE(open_body.ok());
  auto open_frame = DecodeFrameBody(*open_body);
  ASSERT_TRUE(open_frame.ok());
  auto opened = DecodeResponse(open_frame->payload);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();

  // Request a batch far larger than the transport buffer and never
  // drain it: the server's writes stall past the timeout and the
  // session is evicted.
  Request request;
  request.type = RequestType::kRead;
  request.session_id = opened->open.session_id;
  request.max_elements = 16;
  request.trace.trace_id = kTraceId;
  request.trace.parent_span_id = 2;
  ASSERT_TRUE(
      WriteFrame(*client_end, EncodeFrameBody(header, EncodeRequest(request)))
          .ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().sessions_evicted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().sessions_evicted, 1u);
  // The dump is stored by the handler thread as it finishes; wait for
  // it rather than racing it.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.flight_dumps().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::vector<std::string> dumps = server.flight_dumps();
  ASSERT_EQ(dumps.size(), 1u);
  // The dump names the session, its connection and stream, the
  // eviction cause, and the trace.
  EXPECT_NE(
      dumps[0].find("session 1 conn=1 stream=1 object=clip state=EVICTED"),
      std::string::npos)
      << dumps[0];
  EXPECT_NE(dumps[0].find("send stalled past timeout (slow client)"),
            std::string::npos);
  EXPECT_NE(dumps[0].find("EVICT"), std::string::npos);
  EXPECT_NE(dumps[0].find("ADMIT"), std::string::npos);
  char trace_hex[32];
  std::snprintf(trace_hex, sizeof(trace_hex), "trace=0x%llx",
                (unsigned long long)kTraceId);
  EXPECT_NE(dumps[0].find(trace_hex), std::string::npos) << dumps[0];
}

TEST(FlightDumpTest, LossyCompletionLeavesDump) {
  // Heavy faults with no retries: some elements skip, the session
  // completes DEGRADED, and the post-mortem is retained.
  auto db = BuildTelemetryDb(/*read_fault_rate=*/0.4);
  ServeConfig config;
  config.read_options.policy.max_retries = 0;
  config.read_options.chunk_size = 512;  // Many reads => faults land.
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok());
  bool end_of_stream = false;
  while (!end_of_stream) {
    auto batch = (*stream)->Read(8);
    ASSERT_TRUE(batch.ok());
    end_of_stream = batch->end_of_stream;
  }
  auto stats = (*stream)->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->elements_skipped, 0u);
  ASSERT_TRUE((*stream)->Close().ok());
  server.Stop();

  std::vector<std::string> dumps = server.flight_dumps();
  ASSERT_FALSE(dumps.empty());
  EXPECT_NE(dumps[0].find("completed with skipped elements"),
            std::string::npos);
  EXPECT_NE(dumps[0].find("FAULT"), std::string::npos) << dumps[0];
}

#endif  // !TBM_OBS_DISABLED

TEST(TelemetryEndToEndTest, ClientScrapesServerRegistry) {
  auto db = BuildTelemetryDb();
  MediaServer server(db.get());
  auto [c1, s1] = CreateLoopbackPair();
  auto [c2, s2] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(s1)).ok());
  ASSERT_TRUE(server.Serve(std::move(s2)).ok());
  auto streamer = Connect(std::move(c1));
  auto stream = streamer->OpenStream("clip");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Read(8).ok());

  auto scraper = Connect(std::move(c2));
  auto telemetry = scraper->Telemetry();
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().message();
#ifndef TBM_OBS_DISABLED
  // The scrape sees the shared process registry, streaming included.
  EXPECT_GT(telemetry->counters.count("serve.admitted{qos=s1}"), 0u);
  EXPECT_FALSE(obs::ToPrometheusText(*telemetry).empty());
#endif
  ASSERT_TRUE((*stream)->Close().ok());
  server.Stop();
}

// Exercises the exporter scrape path racing live streaming sessions —
// the TSan target: snapshotting the registry and flight recorders
// while handler/worker threads record into them.
TEST(TelemetryRaceTest, ScrapeWhileStreaming) {
  auto db = BuildTelemetryDb(/*read_fault_rate=*/0.02);
  ServeConfig config;
  config.read_options.policy.max_retries = 4;
  config.read_options.policy.backoff_initial_us = 20.0;
  MediaServer server(db.get(), config);

  constexpr int kStreamers = 4;
  std::vector<std::thread> streamers;
  std::atomic<int> completed{0};
  for (int i = 0; i < kStreamers; ++i) {
    auto [client_end, server_end] = CreateLoopbackPair();
    ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
    streamers.emplace_back(
        [&completed, endpoint = std::move(client_end)]() mutable {
          auto connection = Connect(std::move(endpoint));
          auto stream = connection->OpenStream("clip");
          if (!stream.ok()) return;
          bool end_of_stream = false;
          while (!end_of_stream) {
            auto batch = (*stream)->Read(4);
            if (!batch.ok()) return;
            end_of_stream = batch->end_of_stream;
          }
          (void)(*stream)->Close();
          completed.fetch_add(1);
        });
  }

  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto scraper = Connect(std::move(client_end));
  for (int i = 0; i < 25; ++i) {
    auto telemetry = scraper->Telemetry();
    ASSERT_TRUE(telemetry.ok()) << telemetry.status().message();
    (void)server.flight_dumps();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (std::thread& thread : streamers) thread.join();
  server.Stop();
  EXPECT_EQ(completed.load(), kStreamers);
}

}  // namespace
}  // namespace serve
}  // namespace tbm
