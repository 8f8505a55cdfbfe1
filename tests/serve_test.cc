// Tests of the serve layer: wire protocol round-trips and malformed
// frames, loopback transport semantics (non-blocking readiness,
// backpressure, close), the session state machine, and the server
// end-to-end over loopback — including degrade-before-deny admission,
// slow-client eviction, and a 16-session concurrent run with injected
// read faults, plus one OPEN + READ over a real TCP socket.
// Multi-stream multiplexing is covered separately in multiplex_test.cc.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "base/macros.h"
#include "blob/fault_store.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "interp/capture.h"
#include "obs/metrics.h"
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"
#include "test_support.h"

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

// Builds a database over `store` holding one media object "clip" of
// kElements elements (kElementBytes each, 1 tick apart at 10 ticks/s:
// an average rate of 10 000 bytes/s).
std::unique_ptr<MediaDatabase> BuildServeDbOn(
    std::unique_ptr<BlobStore> store) {
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

// BuildServeDbOn an in-memory store; with `read_fault_rate` > 0 the
// store is wrapped in a FaultInjectingStore.
std::unique_ptr<MediaDatabase> BuildServeDb(double read_fault_rate = 0.0) {
  std::unique_ptr<BlobStore> store = std::make_unique<MemoryBlobStore>();
  if (read_fault_rate > 0.0) {
    FaultConfig faults;
    faults.read_fault_rate = read_fault_rate;
    faults.seed = 11;
    store = std::make_unique<FaultInjectingStore>(std::move(store), faults);
  }
  return BuildServeDbOn(std::move(store));
}

// What a ProbeTransport saw. Shared, so it outlives a transport the
// server destroys at teardown.
struct ProbeCounters {
  std::atomic<int> writes{0};  ///< WriteSome calls.
  std::atomic<int> closes{0};  ///< Close calls.
  std::atomic<int> polls{0};   ///< Poll calls.
  std::atomic<bool> fail_writes{false};
};

// Decorates a transport: counts WriteSome, Poll and Close calls and,
// once `fail_writes` is set, fails every write as a dead peer would.
class ProbeTransport final : public Transport {
 public:
  ProbeTransport(std::unique_ptr<Transport> inner,
                 std::shared_ptr<ProbeCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  Result<size_t> ReadSome(uint8_t* out, size_t n) override {
    return inner_->ReadSome(out, n);
  }
  Result<size_t> WriteSome(ByteSpan data) override {
    counters_->writes.fetch_add(1);
    if (counters_->fail_writes.load()) {
      return Status::IOError("injected send failure");
    }
    return inner_->WriteSome(data);
  }
  uint32_t Poll() const override {
    counters_->polls.fetch_add(1);
    return inner_->Poll();
  }
  int fd() const override { return inner_->fd(); }
  void Close() override {
    counters_->closes.fetch_add(1);
    inner_->Close();
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::shared_ptr<ProbeCounters> counters_;
};

// READs the server answered on its loop / handed to a worker, process
// wide. The counters read 0 when observability is compiled out, so
// tests compare them only when kCounting.
#ifdef TBM_OBS_DISABLED
constexpr bool kCounting = false;
#else
constexpr bool kCounting = true;
#endif
uint64_t ReadsInline() {
  return obs::Registry::Global().counter("serve.reads_inline")->Value();
}
uint64_t ReadsOffloaded() {
  return obs::Registry::Global().counter("serve.reads_offloaded")->Value();
}


// Sends one framed request payload on `stream_id` over a raw
// transport.
Status SendRaw(Transport& transport, uint64_t stream_id, ByteSpan payload) {
  FrameHeader header;
  header.stream_id = stream_id;
  return WriteFrame(transport, EncodeFrameBody(header, payload));
}

// One request/response exchange on `stream_id` over a raw transport,
// bypassing the Connection client so tests can send what it never
// would. The response must come back on the same stream.
Result<Response> RawRoundTrip(Transport& transport, uint64_t stream_id,
                              const Request& request) {
  TBM_RETURN_IF_ERROR(SendRaw(transport, stream_id, EncodeRequest(request)));
  TBM_ASSIGN_OR_RETURN(Bytes body, ReadFrame(transport, kMaxFrameBytes));
  TBM_ASSIGN_OR_RETURN(Frame frame, DecodeFrameBody(body));
  EXPECT_EQ(frame.header.stream_id, stream_id);
  return DecodeResponse(frame.payload);
}

// ---------------------------------------------------------------------------
// Protocol encode/decode

TEST(ServeProtocolTest, RequestRoundTripsAllTypes) {
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  Request read;
  read.type = RequestType::kRead;
  read.session_id = 7;
  read.max_elements = 16;
  Request seek;
  seek.type = RequestType::kSeek;
  seek.session_id = 7;
  seek.target_element = 29;
  Request stats;
  stats.type = RequestType::kStats;
  stats.session_id = 7;
  Request close;
  close.type = RequestType::kClose;
  close.session_id = 7;
  Request window;
  window.type = RequestType::kWindow;
  window.session_id = 7;
  window.window_delta = 65536;

  for (const Request& request : {open, read, seek, stats, close, window}) {
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->type, request.type);
    EXPECT_EQ(decoded->session_id, request.session_id);
    EXPECT_EQ(decoded->object_name, request.object_name);
    if (request.type == RequestType::kRead) {
      EXPECT_EQ(decoded->max_elements, request.max_elements);
    }
    if (request.type == RequestType::kSeek) {
      EXPECT_EQ(decoded->target_element, request.target_element);
    }
    if (request.type == RequestType::kWindow) {
      EXPECT_EQ(decoded->window_delta, request.window_delta);
    }
  }
}

TEST(ServeProtocolTest, QosExtensionRoundTrips) {
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  open.qos.priority = 6;
  open.qos.max_stride = 4;
  open.qos.window_bytes = 1 << 16;
  auto decoded = DecodeRequest(EncodeRequest(open));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->qos.priority, 6u);
  EXPECT_EQ(decoded->qos.max_stride, 4u);
  EXPECT_EQ(decoded->qos.window_bytes, uint64_t{1} << 16);
}

TEST(ServeProtocolTest, ResponseRoundTripsBodies) {
  Response open;
  open.type = RequestType::kOpen;
  open.open = {42, 32, 32000, 2, 5000.0};
  auto open_rt = DecodeResponse(EncodeResponse(open));
  ASSERT_TRUE(open_rt.ok());
  EXPECT_EQ(open_rt->open.session_id, 42u);
  EXPECT_EQ(open_rt->open.element_count, 32u);
  EXPECT_EQ(open_rt->open.payload_bytes, 32000u);
  EXPECT_EQ(open_rt->open.stride, 2u);
  EXPECT_DOUBLE_EQ(open_rt->open.booked_bytes_per_second, 5000.0);

  Response read;
  read.type = RequestType::kRead;
  read.read.end_of_stream = true;
  read.read.stride = 4;
  WireElement element;
  element.element_number = 12;
  element.start = 12;
  element.duration = 1;
  element.payload = ElementPayload(12);
  read.read.elements.push_back(element);
  auto read_rt = DecodeResponse(EncodeResponse(read));
  ASSERT_TRUE(read_rt.ok());
  EXPECT_TRUE(read_rt->read.end_of_stream);
  EXPECT_EQ(read_rt->read.stride, 4u);
  ASSERT_EQ(read_rt->read.elements.size(), 1u);
  EXPECT_EQ(read_rt->read.elements[0].element_number, 12u);
  EXPECT_EQ(read_rt->read.elements[0].payload, ElementPayload(12));

  Response stats;
  stats.type = RequestType::kStats;
  stats.stats = {SessionState::kDegraded, 16, 1, 16000, 2};
  auto stats_rt = DecodeResponse(EncodeResponse(stats));
  ASSERT_TRUE(stats_rt.ok());
  EXPECT_EQ(stats_rt->stats.state, SessionState::kDegraded);
  EXPECT_EQ(stats_rt->stats.elements_delivered, 16u);
  EXPECT_EQ(stats_rt->stats.elements_skipped, 1u);
  EXPECT_EQ(stats_rt->stats.stride, 2u);

  Response error;
  error.type = RequestType::kOpen;
  error.status = Status::NotFound("no such object");
  auto error_rt = DecodeResponse(EncodeResponse(error));
  ASSERT_TRUE(error_rt.ok());
  EXPECT_EQ(error_rt->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(error_rt->status.message(), "no such object");
}

TEST(ServeProtocolTest, TruncatedPayloadIsCorruption) {
  Request request;
  request.type = RequestType::kOpen;
  request.object_name = "clip";
  Bytes payload = EncodeRequest(request);
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    auto decoded =
        DecodeRequest(ByteSpan(payload.data(), payload.size() - cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(ServeProtocolTest, TrailingBytesRejected) {
  Request request;
  request.type = RequestType::kStats;
  request.session_id = 3;
  Bytes payload = EncodeRequest(request);
  payload.push_back(0xAA);
  auto decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ServeProtocolTest, UnknownEnumValuesRejected) {
  // Request type 0 and 0x77 are outside the verb set.
  for (uint8_t type : {uint8_t{0}, uint8_t{0x77}}) {
    Bytes payload = {type, 0};
    auto decoded = DecodeRequest(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }

  // Unknown wire status code.
  BinaryWriter bad_code;
  bad_code.WriteU8(static_cast<uint8_t>(RequestType::kClose));
  bad_code.WriteU8(200);
  bad_code.WriteString("x");
  auto code_rt = DecodeResponse(bad_code.TakeBuffer());
  ASSERT_FALSE(code_rt.ok());
  EXPECT_EQ(code_rt.status().code(), StatusCode::kInvalidArgument);

  // Unknown session state in a STATS body.
  BinaryWriter bad_state;
  bad_state.WriteU8(static_cast<uint8_t>(RequestType::kStats));
  bad_state.WriteU8(0);
  bad_state.WriteString("");
  bad_state.WriteU8(9);  // No such SessionState.
  auto state_rt = DecodeResponse(bad_state.TakeBuffer());
  ASSERT_FALSE(state_rt.ok());
  EXPECT_EQ(state_rt.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, ElementCountBeyondFrameIsCorruption) {
  // A READ body claiming millions of elements in a near-empty frame
  // must be rejected before any allocation is sized from it.
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(RequestType::kRead));
  writer.WriteU8(0);
  writer.WriteString("");
  writer.WriteU8(0);        // end_of_stream
  writer.WriteU32(1);       // stride
  writer.WriteVarU64(1u << 24);  // element count, but no elements follow
  auto decoded = DecodeResponse(writer.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Loopback transport (non-blocking readiness interface)

TEST(LoopbackTransportTest, FramesRoundTrip) {
  auto [a, b] = CreateLoopbackPair();
  Bytes payload = ElementPayload(5);
  ASSERT_TRUE(WriteFrame(*a, payload).ok());
  auto received = ReadFrame(*b);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, payload);

  // Empty frames are legal.
  ASSERT_TRUE(WriteFrame(*b, {}).ok());
  auto empty = ReadFrame(*a);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(LoopbackTransportTest, OversizedLengthPrefixRejected) {
  auto [a, b] = CreateLoopbackPair();
  uint8_t prefix[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_TRUE(BlockingSend(*a, ByteSpan(prefix, 4),
                           std::chrono::milliseconds(1000))
                  .ok());
  auto frame = ReadFrame(*b, /*max_frame=*/1 << 20);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(LoopbackTransportTest, WriteSomeReportsWouldBlockWhenFull) {
  // The kernel floors a 64-byte request at its minimum send buffer
  // (4,608 B on Linux, which holds 4,480 B of payload), so a 64 KiB
  // write is taken only in part.
  LoopbackOptions options;
  options.buffer_bytes = 64;
  auto [a, b] = CreateLoopbackPair(options);
  Bytes big(64 * 1024, 0x5A);

  // The buffer takes a prefix, then would-block (0).
  auto first = a->WriteSome(big);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(*first, 0u);
  EXPECT_LT(*first, big.size());
  auto blocked =
      a->WriteSome(ByteSpan(big.data() + *first, big.size() - *first));
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(*blocked, 0u);
  EXPECT_EQ(a->Poll() & kTransportWritable, 0u);

  // A bounded blocking send on the clogged pipe gives up with
  // ResourceExhausted rather than hanging.
  Status timed_out =
      BlockingSend(*a, big, std::chrono::milliseconds(30));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kResourceExhausted);

  // Draining everything the consumer side holds restores
  // writability.
  Bytes sink(big.size());
  auto drained = b->ReadSome(sink.data(), sink.size());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*drained, *first);
  EXPECT_NE(a->Poll() & kTransportWritable, 0u);
}

TEST(LoopbackTransportTest, ReadSomeReportsWouldBlockWhenEmpty) {
  auto [a, b] = CreateLoopbackPair();
  uint8_t byte;
  auto empty = b->ReadSome(&byte, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
  EXPECT_EQ(b->Poll() & kTransportReadable, 0u);

  Bytes data = {9};
  ASSERT_TRUE(BlockingSend(*a, data, std::chrono::milliseconds(100)).ok());
  EXPECT_NE(b->Poll() & kTransportReadable, 0u);
  auto got = b->ReadSome(&byte, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
  EXPECT_EQ(byte, 9);
}

TEST(LoopbackTransportTest, CloseUnblocksRecvAndFailsSend) {
  auto [a, b] = CreateLoopbackPair();
  std::atomic<bool> failed{false};
  std::thread receiver([&] {
    uint8_t byte;
    Status status =
        BlockingRecv(*b, &byte, 1, std::chrono::milliseconds(5000));
    failed.store(!status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  a->Close();
  receiver.join();
  EXPECT_TRUE(failed.load());
  Bytes data = {1, 2, 3};
  EXPECT_EQ(
      BlockingSend(*a, data, std::chrono::milliseconds(100)).code(),
      StatusCode::kIOError);
  EXPECT_NE(a->Poll() & kTransportClosed, 0u);
}

TEST(LoopbackTransportTest, OutOfDescriptorsGivesClosedEnds) {
  // Use up this process's descriptors under a lowered soft limit.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> hogs;
  for (int fd; (fd = ::dup(0)) >= 0;) hogs.push_back(fd);

  auto [a, b] = CreateLoopbackPair();
  uint8_t byte = 0;
  auto read = a->ReadSome(&byte, 1);
  auto written = b->WriteSome(ByteSpan(&byte, 1));

  for (int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_EQ(written.status().code(), StatusCode::kIOError);
  EXPECT_NE(a->Poll() & kTransportClosed, 0u);
  EXPECT_FALSE(WaitWritable(*b, std::chrono::milliseconds(10)));
}

TEST(LoopbackTransportTest, WriteFrameIsOneWriteWhenPeerHasRoom) {
  auto roomy = std::make_shared<ProbeCounters>();
  auto [a, b] = CreateLoopbackPair();
  ProbeTransport sender(std::move(a), roomy);
  Bytes payload = ElementPayload(7);
  ASSERT_TRUE(WriteFrame(sender, payload).ok());
  EXPECT_EQ(roomy->writes.load(), 1);  // Prefix and payload together.
  auto received = ReadFrame(*b);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, payload);

  // A buffer smaller than the frame takes it in pieces; the bytes that
  // arrive are the same. The kernel floors the 64-byte request at
  // 4,608 B, so the frame must be larger than that: 64 KiB.
  auto cramped = std::make_shared<ProbeCounters>();
  LoopbackOptions options;
  options.buffer_bytes = 64;
  auto [c, d] = CreateLoopbackPair(options);
  ProbeTransport small(std::move(c), cramped);
  Bytes big(64 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  Result<Bytes> drained = Status::Internal("not read");
  std::thread reader([&] { drained = ReadFrame(*d); });
  EXPECT_TRUE(WriteFrame(small, big).ok());
  reader.join();
  EXPECT_GT(cramped->writes.load(), 1);
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(*drained, big);
}

// ---------------------------------------------------------------------------
// Session state machine (driven directly, no server)

TEST(ServeSessionTest, StridedSessionSkipsAndFinishesDegraded) {
  auto db = BuildServeDb();
  auto interp_id = db->FindByName("clip_interp");
  ASSERT_TRUE(interp_id.ok());
  auto entry = db->Get(*interp_id);
  ASSERT_TRUE(entry.ok());

  Session::Config config;
  config.stride = 4;
  auto session = Session::Create(1, "clip", db->blob_store(),
                                 (*entry)->interpretation, "clip", config);
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_EQ((*session)->state(), SessionState::kAdmitted);
  EXPECT_TRUE((*session)->degraded());

  std::vector<uint64_t> numbers;
  for (;;) {
    auto batch = (*session)->ReadNext(64);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    for (const WireElement& element : batch->elements) {
      numbers.push_back(element.element_number);
      EXPECT_EQ(element.payload,
                ElementPayload(static_cast<int>(element.element_number)));
    }
    if (batch->end_of_stream) break;
  }
  EXPECT_EQ(numbers, (std::vector<uint64_t>{0, 4, 8, 12, 16, 20, 24, 28}));
  EXPECT_EQ((*session)->state(), SessionState::kDegraded);

  // Terminal sessions refuse further reads and seeks.
  EXPECT_EQ((*session)->ReadNext(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->SeekTo(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServeSessionTest, SeekOutOfRangeAndEviction) {
  auto db = BuildServeDb();
  auto entry = db->Get(*db->FindByName("clip_interp"));
  ASSERT_TRUE(entry.ok());
  Session::Config config;
  auto session = Session::Create(2, "clip", db->blob_store(),
                                 (*entry)->interpretation, "clip", config);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->SeekTo(kElements).status().code(),
            StatusCode::kOutOfRange);
  auto position = (*session)->SeekTo(30);
  ASSERT_TRUE(position.ok());
  EXPECT_EQ(*position, 30u);
  (*session)->MarkEvicted();
  EXPECT_EQ((*session)->state(), SessionState::kEvicted);
  EXPECT_EQ((*session)->ReadNext(1).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Server end-to-end over loopback

TEST(MediaServerTest, StreamsWholeObjectAndFinishesDone) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  const OpenInfo& open = (*stream)->info();
  EXPECT_EQ(open.element_count, static_cast<uint64_t>(kElements));
  EXPECT_EQ(open.payload_bytes,
            static_cast<uint64_t>(kElements) * kElementBytes);
  EXPECT_EQ(open.stride, 1u);
  EXPECT_GT(open.booked_bytes_per_second, 0.0);

  std::vector<uint64_t> numbers;
  bool end_of_stream = false;
  while (!end_of_stream) {
    auto batch = (*stream)->Read(8);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    for (const WireElement& element : batch->elements) {
      EXPECT_EQ(element.payload,
                ElementPayload(static_cast<int>(element.element_number)));
      numbers.push_back(element.element_number);
    }
    end_of_stream = batch->end_of_stream;
  }
  ASSERT_EQ(numbers.size(), static_cast<size_t>(kElements));
  for (int i = 0; i < kElements; ++i) {
    EXPECT_EQ(numbers[static_cast<size_t>(i)], static_cast<uint64_t>(i));
  }

  auto stats = (*stream)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, SessionState::kDone);
  EXPECT_EQ(stats->elements_delivered, static_cast<uint64_t>(kElements));
  EXPECT_EQ(stats->elements_skipped, 0u);
  EXPECT_TRUE((*stream)->Close().ok());

  server.Stop();
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, 1u);
  EXPECT_EQ(snapshot.sessions_denied, 0u);
  EXPECT_EQ(snapshot.sessions_evicted, 0u);
}

// The fd-backed path end to end: a real TCP socket on the server's
// reactor (epoll on Linux), OPEN + READ through the framed client, and
// the delivered bytes checked against Interpretation::Materialize.
TEST(MediaServerTest, ServesOpenAndReadOverTcp) {
  auto db = BuildServeDb();
  auto interp_id = db->FindByName("clip_interp");
  ASSERT_TRUE(interp_id.ok());
  auto interp_entry = db->Get(*interp_id);
  ASSERT_TRUE(interp_entry.ok());
  auto expected =
      (*interp_entry)->interpretation.Materialize(*db->blob_store(), "clip");
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(expected->size(), static_cast<size_t>(kElements));

  MediaServer server(db.get());
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto client_end = TcpConnect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client_end.ok()) << client_end.status();
  ASSERT_GE((*client_end)->fd(), 0);
  auto server_end = (*listener)->Accept();
  ASSERT_TRUE(server_end.ok()) << server_end.status();
  ASSERT_TRUE(server.Serve(std::move(*server_end)).ok());
  (*listener)->Close();

  auto connection = Connect(std::move(*client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  EXPECT_EQ((*stream)->info().element_count,
            static_cast<uint64_t>(kElements));
  EXPECT_EQ((*stream)->info().stride, 1u);

  std::vector<WireElement> received;
  bool end_of_stream = false;
  for (int rounds = 0; !end_of_stream && rounds < 64; ++rounds) {
    auto batch = (*stream)->Read(5);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    for (WireElement& element : batch->elements) {
      received.push_back(std::move(element));
    }
    end_of_stream = batch->end_of_stream;
  }
  ASSERT_TRUE(end_of_stream);
  ASSERT_EQ(received.size(), expected->size());
  for (size_t i = 0; i < received.size(); ++i) {
    const StreamElement& want = expected->at(i);
    EXPECT_EQ(received[i].element_number, i);
    EXPECT_EQ(received[i].start, want.start) << "element " << i;
    EXPECT_EQ(received[i].duration, want.duration) << "element " << i;
    EXPECT_EQ(received[i].payload, Bytes(want.data.begin(), want.data.end()))
        << "element " << i;
  }
  EXPECT_TRUE((*stream)->Close().ok());

  server.Stop();
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, 1u);
  EXPECT_EQ(snapshot.sessions_evicted, 0u);
}

TEST(MediaServerTest, SeekResumesFromTarget) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  auto first = (*stream)->Read(4);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->elements.size(), 4u);

  auto position = (*stream)->Seek(30);
  ASSERT_TRUE(position.ok());
  EXPECT_EQ(*position, 30u);
  auto tail = (*stream)->Read(8);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->elements.size(), 2u);
  EXPECT_EQ(tail->elements[0].element_number, 30u);
  EXPECT_EQ(tail->elements[1].element_number, 31u);
  EXPECT_TRUE(tail->end_of_stream);
  EXPECT_TRUE((*stream)->Close().ok());
}

TEST(MediaServerTest, ErrorsAreWireStatusesNotDisconnects) {
  // Driven over raw frames on one stream id, so the test can send
  // requests the Connection client never would.
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  // READ before OPEN.
  Request read;
  read.type = RequestType::kRead;
  read.max_elements = 1;
  auto early = RawRoundTrip(*client_end, 1, read);
  ASSERT_TRUE(early.ok()) << early.status().message();
  EXPECT_EQ(early->status.code(), StatusCode::kFailedPrecondition);

  // OPEN of a name that is not in the catalog.
  Request missing;
  missing.type = RequestType::kOpen;
  missing.object_name = "nope";
  auto not_found = RawRoundTrip(*client_end, 1, missing);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status.code(), StatusCode::kNotFound);

  // A malformed payload inside a well-formed frame draws an error
  // response and leaves the connection usable.
  Bytes garbage = {0x01, 0xDE, 0xAD};
  ASSERT_TRUE(SendRaw(*client_end, 1, garbage).ok());
  auto raw = ReadFrame(*client_end, kMaxFrameBytes);
  ASSERT_TRUE(raw.ok());
  auto frame = DecodeFrameBody(*raw);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.stream_id, 1u);
  auto decoded = DecodeResponse(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->status.ok());

  // The connection still works: a real OPEN succeeds.
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, 1, open);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();
  uint64_t session_id = opened->open.session_id;

  // A request addressing a different session id is refused.
  Request mismatch;
  mismatch.type = RequestType::kRead;
  mismatch.session_id = session_id + 99;
  mismatch.max_elements = 1;
  auto refused = RawRoundTrip(*client_end, 1, mismatch);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument);

  Request close;
  close.type = RequestType::kClose;
  close.session_id = session_id;
  auto closed = RawRoundTrip(*client_end, 1, close);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->status.ok());
}

TEST(MediaServerTest, AdmissionDegradesBeforeDenying) {
  auto db = BuildServeDb();
  ServeConfig config;
  // The clip's average rate is 10 000 bytes/s. 26 000 admits two at
  // full fidelity, a third only at stride 2 (5 000), and nothing more
  // even at the deepest tier.
  config.capacity_bytes_per_second = 26000;
  config.max_stride = 8;
  MediaServer server(db.get(), config);

  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::unique_ptr<StreamHandle>> streams;
  std::vector<uint32_t> strides;
  bool denied = false;
  for (int i = 0; i < 4; ++i) {
    auto [client_end, server_end] = CreateLoopbackPair();
    ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
    connections.push_back(Connect(std::move(client_end)));
    auto open = connections.back()->OpenStream("clip");
    if (open.ok()) {
      // Every admission so far must precede the first denial: degrade
      // comes before deny.
      EXPECT_FALSE(denied);
      strides.push_back((*open)->info().stride);
      streams.push_back(std::move(*open));
    } else {
      EXPECT_EQ(open.status().code(), StatusCode::kResourceExhausted);
      denied = true;
    }
  }
  EXPECT_EQ(strides, (std::vector<uint32_t>{1, 1, 2}));
  EXPECT_TRUE(denied);

  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, 3u);
  EXPECT_EQ(snapshot.sessions_degraded, 1u);
  EXPECT_EQ(snapshot.sessions_denied, 1u);

  // Capacity released by a CLOSE readmits at full fidelity.
  ASSERT_TRUE(streams[0]->Close().ok());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto fresh = Connect(std::move(client_end));
  auto reopened = fresh->OpenStream("clip");
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->info().stride, 1u);
  EXPECT_TRUE((*reopened)->Close().ok());
}

TEST(MediaServerTest, SlowClientIsEvicted) {
  auto db = BuildServeDb();
  ServeConfig config;
  config.stall_timeout = std::chrono::milliseconds(100);
  MediaServer server(db.get(), config);
  // The kernel floors the 128-byte request at 4,608 B, which holds
  // 4,480 B: far less than the 16 x 1,000 B batch read below.
  LoopbackOptions options;
  options.buffer_bytes = 128;
  auto [client_end, server_end] = CreateLoopbackPair(options);
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, 1, open);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();

  // Ask for a batch far larger than the transport buffer and never
  // drain it: the server's writes stall past the timeout and the
  // connection is torn down, evicting the stream.
  Request request;
  request.type = RequestType::kRead;
  request.session_id = opened->open.session_id;
  request.max_elements = 16;
  ASSERT_TRUE(SendRaw(*client_end, 1, EncodeRequest(request)).ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().sessions_evicted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().sessions_evicted, 1u);

  // The server hung up; once the buffered bytes drain, reads fail.
  Bytes sink(1u << 16);
  Status gone = Status::OK();
  while (gone.ok()) {
    gone = BlockingRecv(*client_end, sink.data(), sink.size(),
                        std::chrono::milliseconds(1000));
  }
  EXPECT_FALSE(gone.ok());
}

TEST(MediaServerTest, ConnectionTableCapacityIsEnforced) {
  auto db = BuildServeDb();
  ServeConfig config;
  config.max_sessions = 2;  // Caps connections as well as streams.
  MediaServer server(db.get(), config);
  auto [c1, s1] = CreateLoopbackPair();
  auto [c2, s2] = CreateLoopbackPair();
  auto [c3, s3] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(s1)).ok());
  ASSERT_TRUE(server.Serve(std::move(s2)).ok());
  Status full = server.Serve(std::move(s3));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Which thread runs a READ: the loop when the readahead holds its
// bytes, a worker otherwise.

// The first READ of a session opens its readahead, so it goes to a
// worker and waits for the store there; later READs find their chunk
// in the window and run on the loop. Both deliver the same bytes, in
// order.
TEST(MediaServerTest, FirstReadOffloadsBufferedReadsRunInline) {
  auto gated_store =
      std::make_unique<GatedStore>(std::make_unique<MemoryBlobStore>());
  GatedStore* gated = gated_store.get();
  auto db = BuildServeDbOn(std::move(gated_store));
  MediaServer server(db.get());  // 256 KiB chunks: the clip is one chunk.
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();

  const uint64_t inline0 = ReadsInline(), offloaded0 = ReadsOffloaded();
  gated->Hold();
  bool parked = false;
  std::thread releaser([&] {
    parked = gated->AwaitParked(1);
    gated->Release();
  });
  auto first = (*stream)->Read(1);
  releaser.join();
  EXPECT_TRUE(parked);  // The first READ waited on the store.
  ASSERT_TRUE(first.ok()) << first.status().message();
  if (kCounting) {
    EXPECT_EQ(ReadsOffloaded() - offloaded0, 1u);
    EXPECT_EQ(ReadsInline() - inline0, 0u);
  }

  std::vector<WireElement> elements = first->elements;
  bool end_of_stream = first->end_of_stream;
  while (!end_of_stream) {
    auto batch = (*stream)->Read(1);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    elements.insert(elements.end(), batch->elements.begin(),
                    batch->elements.end());
    end_of_stream = batch->end_of_stream;
  }
  ASSERT_EQ(elements.size(), static_cast<size_t>(kElements));
  for (int i = 0; i < kElements; ++i) {
    const WireElement& element = elements[static_cast<size_t>(i)];
    EXPECT_EQ(element.element_number, static_cast<uint64_t>(i));
    EXPECT_EQ(element.payload, ElementPayload(i));
  }
  if (kCounting) {
    EXPECT_EQ(ReadsInline() - inline0, static_cast<uint64_t>(kElements - 1));
    EXPECT_EQ(ReadsOffloaded() - offloaded0, 1u);
  }
  auto stats = (*stream)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, SessionState::kDone);
  EXPECT_TRUE((*stream)->Close().ok());
}

// A chunk whose fetch failed is not buffered: the READ over it goes to
// a worker, which reads the element directly.
TEST(MediaServerTest, FailedChunkSendsReadToWorker) {
  constexpr uint64_t kChunk = 16000;
  auto gated_store =
      std::make_unique<GatedStore>(std::make_unique<MemoryBlobStore>());
  GatedStore* gated = gated_store.get();
  auto fault_store =
      std::make_unique<FaultInjectingStore>(std::move(gated_store));
  FaultInjectingStore* fault = fault_store.get();
  auto db = BuildServeDbOn(std::move(fault_store));
  // The first element with bytes in chunk 1.
  auto interp_entry = db->Get(*db->FindByName("clip_interp"));
  ASSERT_TRUE(interp_entry.ok());
  auto object = (*interp_entry)->interpretation.FindObject("clip");
  ASSERT_TRUE(object.ok());
  size_t boundary = 0;
  while (boundary < (*object)->elements.size() &&
         (*object)->elements[boundary].placement.end() <= kChunk) {
    ++boundary;
  }
  ASSERT_GT(boundary, 1u);
  ASSERT_LT(boundary, static_cast<size_t>(kElements));

  ServeConfig config;
  config.io_threads = 1;  // Chunks are fetched in order.
  config.read_options.chunk_size = kChunk;
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();

  gated->Hold();
  bool parked = false;
  std::thread releaser([&] {
    parked = gated->AwaitParked(1);  // Chunk 0, past the fault layer.
    fault->FailNextReads(1);         // So chunk 1's fetch fails.
    gated->Release();
  });
  std::vector<WireElement> elements;
  auto read_one = [&] {
    auto batch = (*stream)->Read(1);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    ASSERT_EQ(batch->elements.size(), 1u);
    elements.push_back(batch->elements[0]);
  };
  read_one();
  releaser.join();
  ASSERT_TRUE(parked);
  ASSERT_TRUE(Eventually([&] { return fault->injected_read_faults() == 1; }));

  const uint64_t inline0 = ReadsInline(), offloaded0 = ReadsOffloaded();
  for (size_t i = 1; i < boundary; ++i) read_one();
  if (kCounting) {
    EXPECT_EQ(ReadsInline() - inline0, boundary - 1);
    EXPECT_EQ(ReadsOffloaded() - offloaded0, 0u);
  }
  read_one();  // Needs chunk 1.
  if (kCounting) {
    EXPECT_EQ(ReadsOffloaded() - offloaded0, 1u);
  }
  for (size_t i = boundary + 1; i < static_cast<size_t>(kElements); ++i) {
    read_one();
  }
  ASSERT_EQ(elements.size(), static_cast<size_t>(kElements));

  for (int i = 0; i < kElements; ++i) {
    const WireElement& element = elements[static_cast<size_t>(i)];
    EXPECT_EQ(element.element_number, static_cast<uint64_t>(i));
    EXPECT_EQ(element.payload, ElementPayload(i));
  }
  auto stats = (*stream)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->elements_skipped, 0u);
  EXPECT_EQ(stats->state, SessionState::kDone);
}

// READs answered on the loop only queue their responses; the flush
// that ends the read pass sends them. Several READs pipelined in one
// client write, then a failing send, must tear the connection down
// exactly once — and never free it under the frame loop (ASan).
TEST(MediaServerTest, PipelinedReadsThenFailedSendTearDownOnce) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto probe = std::make_shared<ProbeCounters>();
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server
                  .Serve(std::make_unique<ProbeTransport>(
                      std::move(server_end), probe))
                  .ok());

  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, 1, open);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();
  Request read;
  read.type = RequestType::kRead;
  read.session_id = opened->open.session_id;
  read.max_elements = 1;
  auto warm = RawRoundTrip(*client_end, 1, read);  // Opens the readahead.
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->status.ok()) << warm->status.message();

  probe->fail_writes.store(true);
  const uint64_t inline0 = ReadsInline();
  FrameHeader header;
  header.stream_id = 1;
  Bytes burst;
  for (int i = 0; i < 5; ++i) {
    Bytes frame = EncodeFrame(header, EncodeRequest(read));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(
      BlockingSend(*client_end, burst, std::chrono::milliseconds(1000)).ok());

  ASSERT_TRUE(
      Eventually([&] { return server.stats().active_connections == 0; }));
  EXPECT_EQ(probe->closes.load(), 1);
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_evicted, 1u);
  EXPECT_EQ(snapshot.active_sessions, 0u);
  if (kCounting) {
    EXPECT_EQ(ReadsInline() - inline0, 5u);
  }
  server.Stop();
  EXPECT_EQ(probe->closes.load(), 1);
}

// The loop dispatches on the readiness the kernel reported; it never
// asks the transport again with Poll(), which would cost one poll(2)
// per ready connection per loop pass.
TEST(MediaServerTest, LoopDispatchNeverPollsTransport) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto probe = std::make_shared<ProbeCounters>();
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server
                  .Serve(std::make_unique<ProbeTransport>(
                      std::move(server_end), probe))
                  .ok());

  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, 1, open);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();
  Request read;
  read.type = RequestType::kRead;
  read.session_id = opened->open.session_id;
  read.max_elements = 2;
  for (int i = 0; i < 8; ++i) {
    auto batch = RawRoundTrip(*client_end, 1, read);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(batch->status.ok()) << batch->status.message();
    ASSERT_EQ(batch->read.elements.size(), 2u);
  }
  server.Stop();
  EXPECT_GT(probe->writes.load(), 0);
  EXPECT_EQ(probe->polls.load(), 0);
}

// Under worker-queue pressure new streams start pre-degraded. READs
// the readahead can answer no longer enter that queue, so it holds
// OPENs and offloaded READs: here one READ holds the only worker at a
// closed store gate and six OPENs queue behind it.
TEST(MediaServerTest, DeepWorkerQueueAdmitsNewStreamsPreDegraded) {
  auto gated_store =
      std::make_unique<GatedStore>(std::make_unique<MemoryBlobStore>());
  GatedStore* gated = gated_store.get();
  auto db = BuildServeDbOn(std::move(gated_store));
  ServeConfig config;
  config.worker_threads = 1;
  config.queue_high_watermark = 2;
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, 1, open);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();
  EXPECT_EQ(opened->open.stride, 1u);

  gated->Hold();
  Request read;
  read.type = RequestType::kRead;
  read.session_id = opened->open.session_id;
  read.max_elements = 1;
  ASSERT_TRUE(SendRaw(*client_end, 1, EncodeRequest(read)).ok());
  for (uint64_t sid = 2; sid <= 7; ++sid) {
    ASSERT_TRUE(SendRaw(*client_end, sid, EncodeRequest(open)).ok());
  }
  // The loop answers a READ on a stream without a session itself, after
  // parsing every frame before it: all six OPENs are queued by then.
  Request orphan;
  orphan.type = RequestType::kRead;
  orphan.max_elements = 1;
  auto answered = RawRoundTrip(*client_end, 99, orphan);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->status.code(), StatusCode::kFailedPrecondition);

  gated->Release();
  std::map<uint64_t, uint32_t> strides;
  for (int i = 0; i < 7; ++i) {
    auto body = ReadFrame(*client_end, kMaxFrameBytes);
    ASSERT_TRUE(body.ok()) << body.status();
    auto frame = DecodeFrameBody(*body);
    ASSERT_TRUE(frame.ok());
    auto response = DecodeResponse(frame->payload);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok()) << response->status.message();
    if (response->type == RequestType::kOpen) {
      strides[frame->header.stream_id] = response->open.stride;
    }
  }
  ASSERT_EQ(strides.size(), 6u);
  EXPECT_EQ(strides[2], 2u);  // Ran with OPENs 3..7 waiting: five > 2.
  EXPECT_EQ(strides[7], 1u);  // Ran with nothing waiting.
}

// serve.request_us times the execution of each OPEN and READ exactly
// once; a CLOSE adds nothing. Receipt -> sent is serve.read_us.
TEST(MediaServerTest, RequestTimerSamplesEachOpenAndReadOnce) {
  auto db = BuildServeDb();
  obs::Histogram* request_us =
      obs::Registry::Global().histogram("serve.request_us");
  const uint64_t before = request_us->Snapshot().count;
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  constexpr uint64_t kReads = 5;
  for (uint64_t i = 0; i < kReads; ++i) {
    ASSERT_TRUE((*stream)->Read(4).ok());
  }
  EXPECT_TRUE((*stream)->Close().ok());
  server.Stop();  // Joins the workers: every timer has recorded.
  if (kCounting) {
    EXPECT_EQ(request_us->Snapshot().count - before, kReads + 1);
  }
}

// ---------------------------------------------------------------------------
// Concurrency under injected faults

TEST(MediaServerConcurrencyTest, SixteenSessionsWithFaultsAllComplete) {
  auto db = BuildServeDb(/*read_fault_rate=*/0.05);
  ServeConfig config;
  config.capacity_bytes_per_second = 8.0 * 1024 * 1024;
  config.worker_threads = 4;
  config.io_threads = 2;
  config.read_options.policy.max_retries = 4;
  config.read_options.policy.backoff_initial_us = 50.0;
  MediaServer server(db.get(), config);

  constexpr int kSessions = 16;
  std::vector<std::thread> threads;
  std::vector<SessionState> final_states(kSessions, SessionState::kOpen);
  // Not vector<bool>: each thread writes its own slot, and the packed
  // bits of vector<bool> would make those writes share bytes.
  std::vector<char> payloads_ok(kSessions, 0);
  std::atomic<int> failures{0};

  for (int i = 0; i < kSessions; ++i) {
    auto [client_end, server_end] = CreateLoopbackPair();
    ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
    threads.emplace_back([&, i, endpoint = std::move(client_end)]() mutable {
      auto connection = Connect(std::move(endpoint));
      auto stream = connection->OpenStream("clip");
      if (!stream.ok()) {
        failures.fetch_add(1);
        return;
      }
      bool all_payloads_ok = true;
      bool end_of_stream = false;
      for (int rounds = 0; !end_of_stream && rounds < 256; ++rounds) {
        auto batch = (*stream)->Read(8);
        if (!batch.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (const WireElement& element : batch->elements) {
          if (element.payload !=
              ElementPayload(static_cast<int>(element.element_number))) {
            all_payloads_ok = false;
          }
        }
        end_of_stream = batch->end_of_stream;
      }
      auto stats = (*stream)->Stats();
      if (!stats.ok()) {
        failures.fetch_add(1);
        return;
      }
      final_states[static_cast<size_t>(i)] = stats->state;
      payloads_ok[static_cast<size_t>(i)] = all_payloads_ok;
      (void)(*stream)->Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kSessions; ++i) {
    SessionState state = final_states[static_cast<size_t>(i)];
    EXPECT_TRUE(state == SessionState::kDone ||
                state == SessionState::kDegraded)
        << "session " << i << " ended " << SessionStateToString(state);
    EXPECT_TRUE(payloads_ok[static_cast<size_t>(i)]) << "session " << i;
  }
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(snapshot.sessions_evicted, 0u);
  EXPECT_EQ(snapshot.active_sessions, 0u);
}

// Serving during ingest: OPEN resolves the object's name and rows
// through the catalog readers while another thread inserts other
// objects, and READs stream the object's bytes meanwhile.
TEST(MediaServerConcurrencyTest, ServesWhileAnotherThreadInserts) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  std::atomic<bool> inserted{false};
  std::thread inserter([&] {
    for (int i = 0; i < 2000; ++i) {
      if (!db->AddEntity("ingested" + std::to_string(i), {}).ok()) {
        ADD_FAILURE() << "insert " << i << " failed";
        break;
      }
    }
    inserted = true;
  });
  auto connection = Connect(std::move(client_end));
  for (int round = 0; !inserted || round < 4; ++round) {
    auto stream = connection->OpenStream("clip");
    if (!stream.ok()) {
      ADD_FAILURE() << "OPEN failed: " << stream.status().message();
      break;
    }
    int delivered = 0;
    bool end_of_stream = false;
    while (!end_of_stream) {
      auto batch = (*stream)->Read(8);
      if (!batch.ok()) {
        ADD_FAILURE() << "READ failed: " << batch.status().message();
        break;
      }
      for (const WireElement& element : batch->elements) {
        EXPECT_EQ(element.payload,
                  ElementPayload(static_cast<int>(element.element_number)));
        ++delivered;
      }
      end_of_stream = batch->end_of_stream;
    }
    EXPECT_EQ(delivered, kElements);
    EXPECT_TRUE((*stream)->Close().ok());
  }
  inserter.join();
  server.Stop();
  EXPECT_EQ(db->size(), 2u + 2000u);
}

}  // namespace
}  // namespace serve
}  // namespace tbm
