#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <thread>

#include "base/macros.h"
#include "base/thread_pool.h"
#include "blob/cas_store.h"
#include "blob/chunk_reader.h"
#include "blob/fault_store.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"
#include "blob/prefetcher.h"
#include "blob/read_policy.h"
#include "codec/adpcm.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/codec_bridge.h"
#include "db/database.h"
#include "interp/streaming.h"
#include "playback/streaming.h"
#include "test_support.h"

namespace tbm {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 0) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>((i * 31 + seed) & 0xFF);
  }
  return data;
}


std::string Scratch(const char* tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/streaming_" + tag + "_" +
                    std::to_string(static_cast<long>(::getpid())) + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// ChunkReader contract across all three stores.

// ctest names each instance after gtest's byte dump of its kind
// (`.../4-byte object <00-00 00-00>`), so the values are pinned: a
// removed kind leaves a gap (the paged kind held 1) instead of
// renaming the instances after it.
enum class StoreKind { kMemory = 0, kFile = 2, kCas = 3 };

std::unique_ptr<BlobStore> MakeStore(StoreKind kind,
                                     const std::string& scratch) {
  switch (kind) {
    case StoreKind::kMemory:
      return std::make_unique<MemoryBlobStore>();
    case StoreKind::kFile: {
      auto store = FileBlobStore::Open(scratch);
      EXPECT_TRUE(store.ok()) << store.status();
      return std::move(*store);
    }
    case StoreKind::kCas: {
      auto store = CasBlobStore::Open(scratch);
      EXPECT_TRUE(store.ok()) << store.status();
      return std::move(*store);
    }
  }
  return nullptr;
}

class ChunkReaderContract : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    scratch_ = Scratch("chunks");
    store_ = MakeStore(GetParam(), scratch_);
  }

  std::string scratch_;
  std::unique_ptr<BlobStore> store_;
};

TEST_P(ChunkReaderContract, ChunksConcatenateToWholeBlob) {
  Bytes data = Pattern(5000, 7);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();

  for (uint64_t chunk_size : {64u, 100u, 999u, 5000u, 10000u}) {
    auto reader = store_->OpenChunkReader(*id, chunk_size, ReadPolicy{});
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ((*reader)->blob_size(), 5000u);
    EXPECT_EQ((*reader)->chunk_size(), chunk_size);

    Bytes joined;
    for (uint64_t c = 0; c < (*reader)->chunk_count(); ++c) {
      auto chunk = (*reader)->ReadChunk(c);
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      EXPECT_EQ(chunk->size(), (*reader)->ChunkRange(c).length);
      joined.insert(joined.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(joined, data) << "chunk_size=" << chunk_size;
    // Past-the-end chunk index is OutOfRange, not UB.
    EXPECT_TRUE((*reader)
                    ->ReadChunk((*reader)->chunk_count())
                    .status()
                    .IsOutOfRange());
  }
}

TEST_P(ChunkReaderContract, LastChunkIsTruncated) {
  auto id = store_->PushAll(Pattern(250));
  ASSERT_TRUE(id.ok()) << id.status();
  auto reader = store_->OpenChunkReader(*id, 100, ReadPolicy{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  const uint64_t last = (*reader)->chunk_count() - 1;
  EXPECT_EQ((*reader)->ChunkRange(last).end(), 250u);
  auto chunk = (*reader)->ReadChunk(last);
  ASSERT_TRUE(chunk.ok());
  EXPECT_LT(chunk->size(), (*reader)->chunk_size());
}

TEST_P(ChunkReaderContract, ZeroChunkSizeRejected) {
  auto id = store_->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(store_->OpenChunkReader(*id, 0, ReadPolicy{})
                  .status()
                  .IsInvalidArgument());
}

// `chunk_reader.h` promises that concurrent ReadChunk calls on one
// reader are safe (in the CI TSan filter): four threads each read every
// chunk and must all reassemble the BLOB exactly.
TEST_P(ChunkReaderContract, ConcurrentReadersSeeWholeBlob) {
  Bytes data = Pattern(30'000, 11);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();
  auto whole = store_->ReadAll(*id);
  ASSERT_TRUE(whole.ok()) << whole.status();
  ASSERT_EQ(*whole, data);
  auto reader = store_->OpenChunkReader(*id, 1000, ReadPolicy{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  const ChunkReader& shared = **reader;

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Bytes> joined(kThreads);
  std::vector<Status> statuses(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t c = 0; c < shared.chunk_count(); ++c) {
        auto chunk = shared.ReadChunk(c);
        if (!chunk.ok()) {
          statuses[t] = chunk.status();
          return;
        }
        joined[t].insert(joined[t].end(), chunk->begin(), chunk->end());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << "reader " << t << ": " << statuses[t];
    EXPECT_EQ(joined[t], *whole) << "reader " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, ChunkReaderContract,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kFile,
                                           StoreKind::kCas));

// The CAS store behind the fault decorator: chunked reads still pass
// through retry/backoff, and injected faults recover against the
// mmap-backed read path.
TEST(CasStreamingTest, FaultWrappedCasRecoversWithRetries) {
  auto cas = CasBlobStore::Open(Scratch("cas_fault"));
  ASSERT_TRUE(cas.ok()) << cas.status();
  auto fault = std::make_unique<FaultInjectingStore>(std::move(*cas));
  Bytes data = Pattern(3000, 5);
  auto id = fault->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();

  fault->FailNextReads(2);
  ReadPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_us = 10.0;  // Keep the test quick.
  policy.backoff_max_us = 50.0;
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 3000}, policy);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(fault->injected_read_faults(), 2u);
}

// Concurrent pulls of the same CAS blob from many threads (in the CI
// TSan filter): every reader sees identical bytes, all zero-copy views
// of one shared mmap.
TEST(CasStreamingTest, ConcurrentPullsShareOneMapping) {
  auto cas = CasBlobStore::Open(Scratch("cas_pulls"));
  ASSERT_TRUE(cas.ok()) << cas.status();
  CasBlobStore* store = cas->get();
  Bytes data = Pattern(64 * 1024, 11);
  auto id = store->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<BufferSlice> slices(kThreads);
  std::vector<Status> statuses(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        uint64_t offset = static_cast<uint64_t>((t * 997 + i * 131) %
                                                (64 * 1024 - 256));
        auto read = store->Read(*id, ByteRange{offset, 256});
        if (!read.ok()) {
          statuses[t] = read.status();
          return;
        }
        if (!std::equal(read->begin(), read->end(),
                        data.begin() + static_cast<long>(offset))) {
          statuses[t] = Status::Internal("bytes mismatch");
          return;
        }
        slices[t] = *read;  // Keep the last slice alive past the loop.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << statuses[t];
  }
  // All views alias the single mapping.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(slices[t].SharesBufferWith(slices[0]));
  }
}

// ---------------------------------------------------------------------------
// Retry / backoff / timeout under scripted fault sequences.

ReadPolicy FastRetryPolicy(int retries) {
  ReadPolicy policy;
  policy.max_retries = retries;
  policy.backoff_initial_us = 10.0;  // Keep tests quick.
  policy.backoff_max_us = 50.0;
  return policy;
}

TEST(ReadPolicyTest, RetriesRecoverFromTransientFaults) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  Bytes data = Pattern(300);
  auto id = fault->PushAll(data);
  ASSERT_TRUE(id.ok());

  fault->FailNextReads(2);
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 300},
                             FastRetryPolicy(3));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(fault->injected_read_faults(), 2u);
  EXPECT_EQ(fault->reads_seen(), 3u);  // 2 failures + 1 success.
}

TEST(ReadPolicyTest, GivesUpWhenRetriesExhausted) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto id = fault->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());

  fault->FailNextReads(5);
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 10},
                             FastRetryPolicy(2));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError());
  EXPECT_EQ(fault->reads_seen(), 3u);  // 1 attempt + 2 retries, all failed.
}

TEST(ReadPolicyTest, DefiniteErrorsAreNotRetried) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto read = ReadWithPolicy(*fault, 999, ByteRange{0, 10},
                             FastRetryPolicy(5));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
  EXPECT_EQ(fault->reads_seen(), 1u);  // No retry can make the BLOB appear.
}

TEST(ReadPolicyTest, CorruptionRetriedOnlyWhenOpted) {
  FaultConfig config;
  config.code = StatusCode::kCorruption;
  auto fault = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), config);
  auto id = fault->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());

  fault->FailNextReads(1);
  auto read =
      ReadWithPolicy(*fault, *id, ByteRange{0, 10}, FastRetryPolicy(3));
  EXPECT_TRUE(read.status().IsCorruption());  // Not transient by default.

  fault->FailNextReads(1);
  ReadPolicy lenient = FastRetryPolicy(3);
  lenient.retry_corruption = true;
  read = ReadWithPolicy(*fault, *id, ByteRange{0, 10}, lenient);
  EXPECT_TRUE(read.ok()) << read.status();
}

TEST(ReadPolicyTest, TimeoutBoundsTotalRetryBudget) {
  FaultConfig config;
  config.read_fault_rate = 1.0;  // Every read fails.
  auto fault = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), config);
  auto id = fault->inner()->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());

  ReadPolicy policy;
  policy.max_retries = 1'000'000;
  policy.backoff_initial_us = 2'000.0;
  policy.backoff_multiplier = 1.0;
  policy.timeout_us = 10'000.0;
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 10}, policy);
  ASSERT_FALSE(read.ok());
  // The budget, not the retry count, stopped it: far fewer than the
  // allowed million attempts ran.
  EXPECT_LT(fault->reads_seen(), 100u);
}

// ---------------------------------------------------------------------------
// AsyncPrefetcher (in the CI TSan filter).

class PrefetcherTest : public ::testing::Test {};

TEST(PrefetcherTest, DeliversIdenticalBytesAcrossDepths) {
  MemoryBlobStore store;
  Bytes data = Pattern(40'000, 3);
  auto id = store.PushAll(data);
  ASSERT_TRUE(id.ok());

  ThreadPool pool(4);
  for (int depth : {0, 1, 4, 16}) {
    auto reader = store.OpenChunkReader(*id, 1024, ReadPolicy{});
    ASSERT_TRUE(reader.ok());
    const uint64_t chunks = (*reader)->chunk_count();
    AsyncPrefetcher prefetcher(std::move(*reader), 0, chunks,
                               depth == 0 ? nullptr : &pool, depth,
                               8ull << 20);
    Bytes joined;
    while (!prefetcher.Done()) {
      auto chunk = prefetcher.Next();
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      joined.insert(joined.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(joined, data) << "depth=" << depth;
    PrefetchStats stats = prefetcher.stats();
    EXPECT_EQ(stats.chunks_delivered, prefetcher.chunk_count());
    EXPECT_EQ(stats.bytes_delivered, data.size());
    EXPECT_EQ(stats.read_errors, 0u);
    EXPECT_TRUE(prefetcher.Next().status().IsOutOfRange());
  }
}

TEST(PrefetcherTest, TightByteBudgetStillCompletes) {
  MemoryBlobStore store;
  Bytes data = Pattern(10'000, 9);
  auto id = store.PushAll(data);
  ASSERT_TRUE(id.ok());

  ThreadPool pool(4);
  auto reader = store.OpenChunkReader(*id, 512, ReadPolicy{});
  ASSERT_TRUE(reader.ok());
  const uint64_t chunks = (*reader)->chunk_count();
  // A 1-byte budget: every chunk exceeds it.
  AsyncPrefetcher prefetcher(std::move(*reader), 0, chunks, &pool,
                             /*depth=*/8, /*max_inflight_bytes=*/1);
  Bytes joined;
  while (!prefetcher.Done()) {
    auto chunk = prefetcher.Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    joined.insert(joined.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(joined, data);
}

TEST(PrefetcherTest, ReadErrorsSurfacePerChunk) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto id = fault->PushAll(Pattern(4096));
  ASSERT_TRUE(id.ok());

  // 4 chunks, no retries.
  auto reader = fault->OpenChunkReader(*id, 1024, ReadPolicy{});
  ASSERT_TRUE(reader.ok());
  const uint64_t chunks = (*reader)->chunk_count();
  fault->FailNextReads(1);

  // Synchronous mode so exactly the first chunk read hits the fault.
  AsyncPrefetcher prefetcher(std::move(*reader), 0, chunks, nullptr,
                             /*depth=*/0, /*max_inflight_bytes=*/8ull << 20);
  int failures = 0, successes = 0;
  while (!prefetcher.Done()) {
    auto chunk = prefetcher.Next();
    chunk.ok() ? ++successes : ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(successes, 3);
  EXPECT_EQ(prefetcher.stats().read_errors, 1u);
}

TEST(PrefetcherTest, ReadyMeansFetchedOk) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto id = fault->PushAll(Pattern(4096));
  ASSERT_TRUE(id.ok());
  auto reader = fault->OpenChunkReader(*id, 1024, ReadPolicy{});
  ASSERT_TRUE(reader.ok());
  fault->FailNextReads(1);

  // One I/O thread fetches chunks in order, so chunk 0 takes the fault.
  ThreadPool pool(1);
  AsyncPrefetcher prefetcher(std::move(*reader), 0, 4, &pool, /*depth=*/4,
                             /*max_inflight_bytes=*/8ull << 20);
  ASSERT_TRUE(Eventually([&] {
    return prefetcher.Ready(1) && prefetcher.Ready(2) && prefetcher.Ready(3);
  }));
  EXPECT_FALSE(prefetcher.Ready(0));  // Fetched, but failed.
  EXPECT_FALSE(prefetcher.Ready(4));  // Outside the range.
  EXPECT_FALSE(prefetcher.Next().ok());
  auto chunk = prefetcher.Next();
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  EXPECT_EQ(chunk->size(), 1024u);
  EXPECT_FALSE(prefetcher.Ready(1));  // Handed over.
  EXPECT_TRUE(prefetcher.Ready(2));
}

// ---------------------------------------------------------------------------
// ElementStream + streamed playback under injected faults (in the CI
// TSan filter).

Interpretation ContiguousInterp(BlobStore* store, int elements,
                                size_t element_bytes, BlobId* blob_out) {
  auto push = store->StartPush();
  EXPECT_TRUE(push.ok());
  InterpretedObject object;
  object.name = "v";
  object.descriptor.type_name = "application/test";
  object.descriptor.kind = MediaKind::kVideo;
  object.time_system = TimeSystem(25);
  for (int i = 0; i < elements; ++i) {
    Bytes data = Pattern(element_bytes, static_cast<uint8_t>(i));
    EXPECT_TRUE((*push)->Push(data).ok());
    object.elements.push_back(
        {i, i, 1, ByteRange{i * element_bytes, element_bytes}, {}});
  }
  auto id = (*push)->Finish();
  EXPECT_TRUE(id.ok());
  Interpretation interp(*id);
  EXPECT_TRUE(interp.AddObject(std::move(object)).ok());
  if (blob_out != nullptr) *blob_out = *id;
  return interp;
}

TEST(StreamingFaultTest, StreamedMaterializeMatchesDirect) {
  MemoryBlobStore store;
  Interpretation interp = ContiguousInterp(&store, 40, 997, nullptr);
  auto direct = interp.Materialize(store, "v");
  ASSERT_TRUE(direct.ok());

  ThreadPool pool(4);
  for (uint64_t chunk_size : {64u, 1000u, 100'000u}) {
    for (int depth : {0, 1, 4}) {
      StreamReadOptions options;
      options.chunk_size = chunk_size;
      options.prefetch_depth = depth;
      options.pool = depth == 0 ? nullptr : &pool;
      auto streamed = MaterializeStreamed(store, interp, "v", options);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      ASSERT_EQ(streamed->size(), direct->size());
      for (size_t i = 0; i < direct->size(); ++i) {
        EXPECT_EQ(streamed->at(i).data, direct->at(i).data);
        EXPECT_EQ(streamed->at(i).start, direct->at(i).start);
      }
    }
  }
}

TEST(StreamingFaultTest, OutOfOrderPlacementsStream) {
  // Key-first layout: element 0's bytes live at the END of the BLOB
  // (paper §4.2's out-of-order placement freedom).
  MemoryBlobStore store;
  Bytes body = Pattern(9000, 5);
  Bytes key = Pattern(1000, 6);
  auto push = store.StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(body).ok());
  ASSERT_TRUE((*push)->Push(key).ok());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok());

  Interpretation interp(*id);
  InterpretedObject object;
  object.name = "v";
  object.descriptor.type_name = "application/test";
  object.time_system = TimeSystem(25);
  object.elements.push_back({0, 0, 1, ByteRange{9000, 1000}, {}});  // Key.
  for (int i = 0; i < 9; ++i) {
    object.elements.push_back(
        {i + 1, i + 1, 1, ByteRange{i * 1000u, 1000u}, {}});
  }
  ASSERT_TRUE(interp.AddObject(std::move(object)).ok());

  auto direct = interp.Materialize(store, "v");
  ASSERT_TRUE(direct.ok());
  ThreadPool pool(2);
  StreamReadOptions options;
  options.chunk_size = 1000;
  options.pool = &pool;
  auto streamed = MaterializeStreamed(store, interp, "v", options);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_EQ(streamed->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(streamed->at(i).data, direct->at(i).data) << "element " << i;
  }
}

TEST(StreamingFaultTest, FailedChunkFallsBackToDirectRead) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  BlobId blob;
  Interpretation interp = ContiguousInterp(fault->inner(), 10, 1000, &blob);
  interp.set_blob(blob);

  fault->FailNextReads(1);  // First chunk read fails; no retries set.
  StreamReadOptions options;
  options.chunk_size = 1000;
  options.prefetch_depth = 0;
  auto stream = ElementStream::Open(*fault, interp, "v", options);
  ASSERT_TRUE(stream.ok());
  Bytes expected = Pattern(1000, 0);
  auto first = (*stream)->Next();
  ASSERT_TRUE(first.ok()) << first.status();  // Recovered via fallback.
  EXPECT_EQ(first->data, expected);
  EXPECT_GE((*stream)->stats().fallback_element_reads, 1u);
  while (!(*stream)->Done()) {
    auto element = (*stream)->Next();
    ASSERT_TRUE(element.ok()) << element.status();
  }
}

// Buffered() answers "can the next elements be delivered without a
// read or a wait". Elements of 600 bytes over 1000-byte chunks: element
// 1 is [600, 1200), across the chunk 0/1 boundary.
TEST(StreamingTest, BufferedAcrossChunkBoundaryAndAfterEviction) {
  auto gated = std::make_unique<GatedStore>(std::make_unique<MemoryBlobStore>());
  Interpretation interp = ContiguousInterp(gated.get(), 10, 600, nullptr);
  ThreadPool pool(1);
  StreamReadOptions options;
  options.chunk_size = 1000;
  options.prefetch_depth = 2;
  options.pool = &pool;
  auto stream = ElementStream::Open(*gated, interp, "v", options);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE((*stream)->Buffered(1));  // The first Next() opens readahead.

  gated->Hold();
  gated->Admit(1);  // Chunk 0 only; chunk 1 waits at the gate.
  auto first = (*stream)->Next();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->data, Pattern(600, 0));
  ASSERT_TRUE(gated->AwaitParked(1));
  EXPECT_FALSE((*stream)->Buffered(1));  // Element 1 needs held chunk 1.

  gated->Admit(1);
  EXPECT_TRUE(Eventually([&] { return (*stream)->Buffered(1); }));
  EXPECT_FALSE((*stream)->Buffered(3));  // Element 3 needs held chunk 2.

  auto second = (*stream)->Next();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->data, Pattern(600, 1));
  // Chunk 0 is evicted now; element 2 ([1200, 1800)) lies in chunk 1,
  // already pulled into the window, so it needs no readahead at all.
  EXPECT_EQ((*stream)->stats().peak_window_chunks, 2u);
  EXPECT_TRUE((*stream)->Buffered(1));

  gated->Release();
  for (int i = 2; i < 10; ++i) {
    auto element = (*stream)->Next();
    ASSERT_TRUE(element.ok()) << element.status();
    EXPECT_EQ(element->data, Pattern(600, static_cast<uint8_t>(i)));
  }
  EXPECT_TRUE((*stream)->Buffered(1));  // Nothing left to read.
  EXPECT_EQ((*stream)->stats().fallback_element_reads, 0u);
}

// A chunk that failed leaves a hole in the window: the element over it
// is not buffered (Next() reads it directly), later ones are again.
TEST(StreamingTest, BufferedIsFalseOverAFailedChunk) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  BlobId blob;
  Interpretation interp = ContiguousInterp(fault->inner(), 10, 600, &blob);
  interp.set_blob(blob);
  fault->FailNextReads(1);  // Chunk 0's fetch; the pool has one thread.

  ThreadPool pool(1);
  StreamReadOptions options;
  options.chunk_size = 1000;
  options.prefetch_depth = 2;
  options.pool = &pool;
  auto stream = ElementStream::Open(*fault, interp, "v", options);
  ASSERT_TRUE(stream.ok());
  auto first = (*stream)->Next();
  ASSERT_TRUE(first.ok()) << first.status();  // Direct-read fallback.
  EXPECT_EQ(first->data, Pattern(600, 0));
  EXPECT_FALSE((*stream)->Buffered(1));  // Element 1 needs chunk 0.

  auto second = (*stream)->Next();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->data, Pattern(600, 1));
  EXPECT_TRUE((*stream)->Buffered(1));  // Element 2 is in pulled chunk 1.
  EXPECT_EQ((*stream)->stats().fallback_element_reads, 2u);
}

// ChunkReader holds a 32-bit chunk size; a wider StreamReadOptions
// value must be refused at Open rather than streamed in truncated
// chunks.
TEST(StreamingTest, OpenRejectsChunkSizesTheReaderCannotHold) {
  MemoryBlobStore store;
  BlobId blob;
  Interpretation interp = ContiguousInterp(&store, 8, 512, &blob);
  for (uint64_t bad : {uint64_t{0}, (uint64_t{1} << 32) + 4096}) {
    StreamReadOptions options;
    options.chunk_size = bad;
    EXPECT_TRUE(ElementStream::Open(store, interp, "v", options)
                    .status()
                    .IsInvalidArgument())
        << "chunk_size=" << bad;
    EXPECT_TRUE(store.OpenChunkReader(blob, bad, ReadPolicy{})
                    .status()
                    .IsInvalidArgument())
        << "chunk_size=" << bad;
  }

  StreamReadOptions widest;
  widest.chunk_size = std::numeric_limits<uint32_t>::max();
  auto stream = ElementStream::Open(store, interp, "v", widest);
  ASSERT_TRUE(stream.ok()) << stream.status();
  while (!(*stream)->Done()) {
    ASSERT_TRUE((*stream)->Next().ok());
  }
  EXPECT_EQ((*stream)->stats().prefetch.chunks_delivered, 1u);
}

// An ElementStream reads only the chunks between its object's lowest
// placement offset and highest placement end: an object at the head of
// a 16-chunk BLOB reads no chunk after its own, one at the tail none
// before its own (an empty placement at offset 0 does not widen the
// range), with or without readahead.
TEST(StreamingTest, ReadsOnlyTheObjectsChunkRange) {
  constexpr uint64_t kChunk = 1024;
  constexpr uint64_t kBlob = 16 * kChunk;
  constexpr uint64_t kElement = 300;
  FaultInjectingStore store(std::make_unique<MemoryBlobStore>());
  auto id = store.PushAll(Pattern(kBlob, 4));
  ASSERT_TRUE(id.ok()) << id.status();

  auto object = [](const std::string& name, uint64_t first_offset,
                   bool leading_empty) {
    InterpretedObject object;
    object.name = name;
    object.descriptor.type_name = "application/test";
    object.descriptor.kind = MediaKind::kVideo;
    object.time_system = TimeSystem(25);
    if (leading_empty) object.elements.push_back({0, 0, 1, {0, 0}, {}});
    for (int i = 0; i < 5; ++i) {
      const int64_t n = static_cast<int64_t>(object.elements.size());
      object.elements.push_back(
          {n, n, 1, ByteRange{first_offset + i * kElement, kElement}, {}});
    }
    return object;
  };
  Interpretation interp(*id);
  // Chunks 0-1 and 14-15.
  ASSERT_TRUE(interp.AddObject(object("head", 0, false)).ok());
  ASSERT_TRUE(
      interp.AddObject(object("tail", kBlob - 5 * kElement, true)).ok());

  ThreadPool pool(2);
  for (const std::string name : {"head", "tail"}) {
    auto expected = interp.Materialize(*store.inner(), name);
    ASSERT_TRUE(expected.ok()) << expected.status();
    for (int depth : {0, 4}) {
      SCOPED_TRACE(name + " depth " + std::to_string(depth));
      StreamReadOptions options;
      options.chunk_size = kChunk;
      options.prefetch_depth = depth;
      options.pool = depth == 0 ? nullptr : &pool;
      const uint64_t reads_before = store.reads_seen();
      ElementStreamStats stats;
      {
        auto stream = ElementStream::Open(store, interp, name, options);
        ASSERT_TRUE(stream.ok()) << stream.status();
        for (size_t i = 0; i < expected->size(); ++i) {
          auto element = (*stream)->Next();
          ASSERT_TRUE(element.ok()) << element.status();
          EXPECT_EQ(element->data, expected->at(i).data) << "element " << i;
        }
        stats = (*stream)->stats();
      }  // Destroyed: any readahead still in flight has finished.
      EXPECT_EQ(store.reads_seen() - reads_before, 2u);
      EXPECT_EQ(stats.prefetch.chunks_delivered, 2u);
      EXPECT_EQ(stats.fallback_element_reads, 0u);
    }
  }
}

TEST(StreamingFaultTest, ZeroAbortsAtFivePercentFaultRate) {
  // Acceptance criterion: 5% transient read-fault rate, retries on —
  // every element is delivered and playback never aborts.
  FaultConfig config;
  config.read_fault_rate = 0.05;
  config.seed = 1234;
  auto fault = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), config);
  BlobId blob;
  Interpretation interp = ContiguousInterp(fault->inner(), 100, 2000, &blob);
  interp.set_blob(blob);

  ThreadPool pool(4);
  StreamReadOptions options;
  options.chunk_size = 4096;
  options.prefetch_depth = 4;
  options.pool = &pool;
  options.policy = FastRetryPolicy(8);

  auto report = PlayStreamed(*fault, interp, {"v"}, PlaybackConfig{}, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->elements_skipped, 0u) << "playback dropped elements";
  EXPECT_EQ(report->playback.total_elements, 100);
  EXPECT_GT(fault->injected_read_faults(), 0u)
      << "fault injection never fired; the test is vacuous";
  ASSERT_EQ(report->read_stats.size(), 1u);
  EXPECT_EQ(report->read_stats[0].elements_delivered, 100u);
}

TEST(StreamingTest, PlayStreamedAdmittedBooksAndReleases) {
  MemoryBlobStore store;
  Interpretation interp = ContiguousInterp(&store, 25, 4000, nullptr);

  const InterpretedObject* object = *interp.FindObject("v");
  RateProfile profile = MeasureRateProfileFromPlacements(*object);
  EXPECT_GT(profile.average_bytes_per_second, 0.0);
  EXPECT_GE(profile.peak_bytes_per_second, profile.average_bytes_per_second);

  AdmissionController controller(profile.peak_bytes_per_second * 2,
                                 AdmissionController::Policy::kPeakRate);
  auto report = PlayStreamedAdmitted(&controller, "s1", store, interp, {"v"},
                                     PlaybackConfig{}, StreamReadOptions{});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(controller.session_count(), 0u);  // Booking released.

  AdmissionController tiny(profile.peak_bytes_per_second / 2,
                           AdmissionController::Policy::kPeakRate);
  auto rejected = PlayStreamedAdmitted(&tiny, "s2", store, interp, {"v"},
                                       PlaybackConfig{}, StreamReadOptions{});
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_EQ(tiny.session_count(), 0u);  // No residue after rejection.
}

// ---------------------------------------------------------------------------
// Database-level wiring: injected stores and the streamed read path.

TEST(DatabaseStreamingTest, InjectedFaultStoreComposes) {
  FaultConfig config;
  config.read_fault_rate = 0.05;
  config.seed = 77;
  auto db = MediaDatabase::CreateWithStore(
      std::make_unique<FaultInjectingStore>(
          std::make_unique<MemoryBlobStore>(), config));

  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 8, 2);
  auto interp = StoreValue(db->blob_store(), MediaValue(video), "clip");
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto interp_id = db->AddInterpretation("clip_interp", std::move(*interp));
  ASSERT_TRUE(interp_id.ok());
  auto media_id = db->AddMediaObject("clip_media", *interp_id, "clip");
  ASSERT_TRUE(media_id.ok());

  // The database's read path with retries survives the 5% fault rate
  // and matches Interpretation::Materialize over the fault-free store.
  const auto* fault = static_cast<const FaultInjectingStore*>(db->blob_store());
  auto interp_entry = db->Get(*interp_id);
  ASSERT_TRUE(interp_entry.ok());
  auto expected =
      (*interp_entry)->interpretation.Materialize(*fault->inner(), "clip");
  ASSERT_TRUE(expected.ok()) << expected.status();

  StreamReadOptions options;
  options.prefetch_depth = 4;
  options.policy = FastRetryPolicy(8);
  db->set_read_options(options);
  auto streamed = db->MaterializeStream(*media_id);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_EQ(streamed->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(streamed->at(i).data, expected->at(i).data);
  }
}

TEST(DatabaseStreamingTest, OpenWithInjectedFileStorePersists) {
  std::string dir = Scratch("dbinject");
  BlobId blob_id;
  {
    auto file_store = FileBlobStore::Open(dir);
    ASSERT_TRUE(file_store.ok());
    auto db = MediaDatabase::Open(
        dir, std::make_unique<FaultInjectingStore>(std::move(*file_store)));
    ASSERT_TRUE(db.ok()) << db.status();
    Interpretation interp =
        ContiguousInterp((*db)->blob_store(), 5, 100, &blob_id);
    ASSERT_TRUE((*db)->AddInterpretation("i", std::move(interp)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Reopen with the plain convenience factory: same catalog, same data.
  auto reopened = MediaDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto id = (*reopened)->FindByName("i");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE((*reopened)->blob_store()->Exists(blob_id));
}

// One interpretation per media type decoded element by element, each
// named "clip".
Result<Interpretation> StoreIncrementalClip(BlobStore* store,
                                            const std::string& type) {
  StoreOptions options;
  if (type == "audio/pcm-block") {
    return StoreValue(store,
                      MediaValue(audiogen::Sine(8000, 2, 440.0, 0.5, 1.5)),
                      "clip", options);
  }
  if (type == "audio/adpcm") {
    AudioBuffer audio = audiogen::Sine(8000, 2, 330.0, 0.5, 1.5);
    TBM_ASSIGN_OR_RETURN(std::vector<AdpcmBlock> blocks,
                         AdpcmEncode(audio, 512));
    MediaDescriptor desc;
    desc.type_name = "audio/adpcm";
    desc.kind = MediaKind::kAudio;
    desc.attrs.SetInt("sample rate", audio.sample_rate);
    desc.attrs.SetInt("number of channels", audio.channels);
    TimedStream stream(desc, TimeSystem(audio.sample_rate));
    for (const AdpcmBlock& block : blocks) {
      ElementDescriptor coder_state;
      coder_state.SetInt("predictor", block.predictor[0]);
      coder_state.SetInt("step index", block.step_index[0]);
      coder_state.SetInt("predictor1", block.predictor[1]);
      coder_state.SetInt("step index1", block.step_index[1]);
      TBM_RETURN_IF_ERROR(stream.AppendContiguous(block.data, block.frames,
                                                  std::move(coder_state)));
    }
    return StoreValue(store, MediaValue(std::move(stream)), "clip", options);
  }
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 9, 4);
  options.video_codec = type.substr(type.find('/') + 1);
  options.key_interval = 4;
  options.bidirectional = true;  // Only TMPEG reads it.
  return StoreValue(store, MediaValue(std::move(video)), "clip", options);
}

void ExpectSameValue(const MediaValue& direct, const MediaValue& streamed) {
  ASSERT_EQ(direct.index(), streamed.index());
  if (const auto* a = std::get_if<AudioBuffer>(&direct)) {
    const AudioBuffer& b = std::get<AudioBuffer>(streamed);
    EXPECT_EQ(a->sample_rate, b.sample_rate);
    EXPECT_EQ(a->channels, b.channels);
    EXPECT_GT(a->samples.size(), 0u);
    EXPECT_TRUE(a->samples == b.samples);
    return;
  }
  const VideoValue& a = std::get<VideoValue>(direct);
  const VideoValue& b = std::get<VideoValue>(streamed);
  EXPECT_EQ(a.frame_rate, b.frame_rate);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  EXPECT_GT(a.frames.size(), 0u);
  for (size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].width, b.frames[i].width) << "frame " << i;
    EXPECT_EQ(a.frames[i].height, b.frames[i].height) << "frame " << i;
    EXPECT_EQ(a.frames[i].data, b.frames[i].data) << "frame " << i;
  }
}

// MediaDatabase::Materialize reads through an ElementStream whose
// chunks split elements; it must decode to the same value as the
// reference path, DecodeStream over Interpretation::Materialize, for
// every type decoded element by element (in the CI TSan filter: the
// prefetch runs on the database's I/O pool).
TEST(DatabaseStreamingTest, MaterializeMatchesReferenceDecode) {
  constexpr uint64_t kChunk = 256;
  for (const std::string type :
       {"audio/pcm-block", "audio/adpcm", "video/raw", "video/tjpeg",
        "video/tmpeg"}) {
    SCOPED_TRACE(type);
    auto db = MediaDatabase::CreateInMemory();
    StreamReadOptions options;
    options.chunk_size = kChunk;
    db->set_read_options(options);
    auto interp = StoreIncrementalClip(db->blob_store(), type);
    ASSERT_TRUE(interp.ok()) << interp.status();
    const InterpretedObject* object = *interp->FindObject("clip");
    ASSERT_EQ(object->descriptor.type_name, type);
    size_t straddling = 0;
    size_t bidirectional = 0;
    for (const ElementPlacement& element : object->elements) {
      const ByteRange& range = element.placement;
      if (!range.empty() &&
          range.offset / kChunk != (range.end() - 1) / kChunk) {
        ++straddling;
      }
      auto kind = element.descriptor.GetString("frame kind");
      if (kind.ok() && *kind == "bidirectional") ++bidirectional;
    }
    EXPECT_GT(straddling, 0u) << "no element spans two chunks";
    if (type == "video/tmpeg") {
      EXPECT_GT(bidirectional, 0u) << "no bidirectional frames to re-sort";
    }

    auto reference_stream = interp->Materialize(*db->blob_store(), "clip");
    ASSERT_TRUE(reference_stream.ok());
    auto reference = DecodeStream(*reference_stream);
    ASSERT_TRUE(reference.ok()) << reference.status();

    auto interp_id = db->AddInterpretation("clip_interp", std::move(*interp));
    ASSERT_TRUE(interp_id.ok()) << interp_id.status();
    auto media_id = db->AddMediaObject("clip_media", *interp_id, "clip");
    ASSERT_TRUE(media_id.ok()) << media_id.status();
    auto materialized = db->Materialize(*media_id);
    ASSERT_TRUE(materialized.ok()) << materialized.status();
    ExpectSameValue(*reference, *materialized);
  }
}

}  // namespace
}  // namespace tbm
