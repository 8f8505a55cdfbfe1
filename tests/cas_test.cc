#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "base/bytes.h"
#include "base/sha256.h"
#include "base/sha256_internal.h"
#include "blob/cas_store.h"

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
  std::string dir = ::testing::TempDir() + "/cas_" + tag + "_" +
                    std::to_string(static_cast<long>(::getpid())) + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

ByteSpan Span(const char* s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s), std::strlen(s));
}

// ---------------------------------------------------------------------------
// SHA-256 against FIPS 180-4 / NIST test vectors.

TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(Sha256::Hash(ByteSpan()).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::Hash(Span("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::Hash(
                Span("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnop"
                     "q"))
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(hasher.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = Pattern(100'000, 3);
  // Split at awkward boundaries (block size is 64).
  for (size_t split : {1ul, 63ul, 64ul, 65ul, 4096ul, 99'999ul}) {
    Sha256 hasher;
    hasher.Update(ByteSpan(data.data(), split));
    hasher.Update(ByteSpan(data.data() + split, data.size() - split));
    EXPECT_EQ(hasher.Finish(), Sha256::Hash(data)) << "split=" << split;
  }
}

// ---------------------------------------------------------------------------
// The compression path Sha256 dispatches to (SHA-NI where the CPU has
// it) against the portable scalar reference.

Bytes RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Bytes data(n);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng());
  return data;
}

TEST(Sha256Test, DispatchedMatchesScalarAtEveryLength) {
  const bool scalar = sha256_internal::ActiveCompress() ==
                      sha256_internal::CompressBlocksScalar;
  RecordProperty("compress", scalar ? "scalar" : "sha-ni");
  std::mt19937 rng(2024);
  std::vector<size_t> lengths = {0,   1,   55,  56,   63,  64,
                                 65,  119, 120, 128,  1000, 85'000};
  for (int i = 0; i < 200; ++i) lengths.push_back(rng() % 4097);
  for (size_t n : lengths) {
    Bytes data = RandomBytes(n, static_cast<uint32_t>(n));
    EXPECT_EQ(Sha256::Hash(data), sha256_internal::HashScalar(data))
        << "length " << n;
  }
}

TEST(Sha256Test, DispatchedMatchesScalarOnOneMebibyte) {
  Bytes data = RandomBytes(1 << 20, 1);
  EXPECT_EQ(Sha256::Hash(data), sha256_internal::HashScalar(data));
  // The raw states agree after one call over all 16384 blocks, too.
  uint32_t dispatched[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t scalar[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  sha256_internal::ActiveCompress()(dispatched, data.data(), data.size() / 64);
  sha256_internal::CompressBlocksScalar(scalar, data.data(), data.size() / 64);
  EXPECT_TRUE(std::equal(dispatched, dispatched + 8, scalar));
}

TEST(Sha256Test, UpdateSplitAtEveryOffsetInABlock) {
  Bytes data = RandomBytes(400, 2);
  const Sha256Digest want = sha256_internal::HashScalar(data);
  // One split anywhere in the first two blocks, then a second split at
  // every offset of a later block, so each Update starts and ends at
  // every position of a pending block.
  for (size_t first = 0; first <= 128; ++first) {
    for (size_t second = 192; second <= 256; second += 8) {
      Sha256 hasher;
      hasher.Update(ByteSpan(data.data(), first));
      hasher.Update(ByteSpan(data.data() + first, second - first));
      hasher.Update(ByteSpan(data.data() + second, data.size() - second));
      EXPECT_EQ(hasher.Finish(), want)
          << "splits at " << first << " and " << second;
    }
  }
  for (size_t second = 192; second <= 256; ++second) {
    Sha256 hasher;
    hasher.Update(ByteSpan(data.data(), second));
    hasher.Update(ByteSpan(data.data() + second, data.size() - second));
    EXPECT_EQ(hasher.Finish(), want) << "split at " << second;
  }
}

TEST(Sha256Test, CasPushUsesTheSameDigest) {
  const std::string root = Scratch("digest");
  auto store = CasBlobStore::Open(root);
  ASSERT_TRUE(store.ok()) << store.status();
  Bytes data = RandomBytes(85'000, 3);
  auto id = (*store)->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*(*store)->HashOf(*id), sha256_internal::HashScalar(data));
  store->reset();
  std::filesystem::remove_all(root);
}

TEST(Sha256Test, DigestHexRoundTrip) {
  Sha256Digest digest = Sha256::Hash(Span("abc"));
  Sha256Digest parsed;
  ASSERT_TRUE(Sha256Digest::FromHex(digest.ToHex(), &parsed));
  EXPECT_EQ(parsed, digest);
  EXPECT_FALSE(Sha256Digest::FromHex("xyz", &parsed));
  EXPECT_FALSE(Sha256Digest::FromHex("abcd", &parsed));
}

// ---------------------------------------------------------------------------
// Content-addressed store.

class CasStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = Scratch("store");
    auto store = CasBlobStore::Open(root_);
    ASSERT_TRUE(store.ok()) << store.status();
    store_ = std::move(*store);
  }

  std::string root_;
  std::unique_ptr<CasBlobStore> store_;
};

TEST_F(CasStoreTest, PushPullRoundTrip) {
  Bytes data = Pattern(10'000, 1);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*store_->Size(*id), 10'000u);
  EXPECT_EQ(*store_->ReadAll(*id), data);
  EXPECT_EQ(*store_->HashOf(*id), Sha256::Hash(data));
  EXPECT_EQ(*store_->LookupHash(Sha256::Hash(data)), *id);
}

TEST_F(CasStoreTest, StreamingPushMatchesOneShot) {
  Bytes data = Pattern(50'000, 2);
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok()) << push.status();
  size_t offset = 0;
  for (size_t chunk : {1ul, 63ul, 4096ul, 45'840ul}) {
    ASSERT_TRUE((*push)->Push(ByteSpan(data.data() + offset, chunk)).ok());
    offset += chunk;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ((*push)->bytes_pushed(), data.size());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*store_->ReadAll(*id), data);
  // The identical content pushed in one shot dedups to the same id.
  EXPECT_EQ(*store_->PushAll(data), *id);
}

TEST_F(CasStoreTest, DedupReturnsSameIdAndCountsRefs) {
  Bytes data = Pattern(5000, 3);
  auto a = store_->PushAll(data);
  auto b = store_->PushAll(data);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*store_->RefCount(*a), 2u);

  CasStoreStats stats = store_->Stats();
  EXPECT_EQ(stats.blob_count, 1u);
  EXPECT_EQ(stats.stored_bytes, 5000u);
  EXPECT_EQ(stats.logical_bytes, 10'000u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.dedup_ratio(), 2.0);

  // Distinct content gets a distinct id.
  auto c = store_->PushAll(Pattern(5000, 4));
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*c, *a);
}

TEST_F(CasStoreTest, DeleteDropsOneReference) {
  Bytes data = Pattern(1000, 5);
  auto a = store_->PushAll(data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store_->PushAll(data).ok());  // refcount -> 2
  ASSERT_TRUE(store_->Delete(*a).ok());     // refcount -> 1
  EXPECT_TRUE(store_->Exists(*a));
  EXPECT_EQ(*store_->ReadAll(*a), data);
  ASSERT_TRUE(store_->Delete(*a).ok());  // refcount -> 0: reclaimed
  EXPECT_FALSE(store_->Exists(*a));
  EXPECT_TRUE(store_->Delete(*a).IsNotFound());
}

TEST_F(CasStoreTest, EmptyBlob) {
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*store_->Size(*id), 0u);
  auto read = store_->Read(*id, ByteRange{0, 0});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(CasStoreTest, PushHandleStateMachine) {
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(Pattern(10)).ok());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok());
  // Finished handle rejects everything further.
  EXPECT_TRUE((*push)->Push(Pattern(1)).IsFailedPrecondition());
  EXPECT_TRUE((*push)->Finish().status().IsFailedPrecondition());
  EXPECT_TRUE((*push)->Abort().ok());  // No-op after finish.

  // Aborted push leaves no trace and burns no id.
  size_t blobs_before = store_->List().size();
  auto aborted = store_->StartPush();
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE((*aborted)->Push(Pattern(100, 9)).ok());
  EXPECT_TRUE((*aborted)->Abort().ok());
  EXPECT_TRUE((*aborted)->Finish().status().IsFailedPrecondition());
  EXPECT_EQ(store_->List().size(), blobs_before);

  // A dropped handle aborts implicitly.
  {
    auto dropped = store_->StartPush();
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE((*dropped)->Push(Pattern(50, 8)).ok());
  }
  EXPECT_EQ(store_->List().size(), blobs_before);
  // tmp/ staging is empty again.
  size_t staged = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(root_ + "/tmp")) {
    ++staged;
  }
  EXPECT_EQ(staged, 0u);
}

TEST_F(CasStoreTest, ListIsAscending) {
  std::vector<BlobId> ids;
  for (int i = 0; i < 10; ++i) {
    auto id = store_->PushAll(Pattern(100, static_cast<uint8_t>(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(store_->Delete(ids[3]).ok());
  ids.erase(ids.begin() + 3);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(store_->List(), ids);
}

TEST_F(CasStoreTest, LedgerSurvivesReopen) {
  Bytes shared = Pattern(4000, 1);
  BlobId shared_id, solo_id;
  {
    auto id = store_->PushAll(shared);
    ASSERT_TRUE(id.ok());
    shared_id = *id;
    ASSERT_TRUE(store_->PushAll(shared).ok());  // refcount 2
    auto solo = store_->PushAll(Pattern(123, 2));
    ASSERT_TRUE(solo.ok());
    solo_id = *solo;
    store_.reset();  // Close (journal flushed per record anyway).
  }
  auto reopened = CasBlobStore::Open(root_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(*(*reopened)->ReadAll(shared_id), shared);
  EXPECT_EQ(*(*reopened)->RefCount(shared_id), 2u);
  EXPECT_EQ(*(*reopened)->ReadAll(solo_id), Pattern(123, 2));
  // Dedup state survives: pushing the shared bytes again hits the
  // recovered ledger entry.
  EXPECT_EQ(*(*reopened)->PushAll(shared), shared_id);
  EXPECT_EQ(*(*reopened)->RefCount(shared_id), 3u);
  // New ids don't collide with recovered ones.
  auto fresh = (*reopened)->PushAll(Pattern(55, 9));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, solo_id);
}

TEST_F(CasStoreTest, SlicesSurviveDeleteAndStoreDestruction) {
  Bytes data = Pattern(8192, 6);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok());
  auto slice = store_->Read(*id, ByteRange{100, 500});
  ASSERT_TRUE(slice.ok());
  ASSERT_TRUE(store_->Delete(*id).ok());  // Unlinks the shard file.
  EXPECT_EQ(*slice, Bytes(data.begin() + 100, data.begin() + 600));
  store_.reset();  // Even the store may go away under a live slice.
  EXPECT_EQ(*slice, Bytes(data.begin() + 100, data.begin() + 600));
}

TEST_F(CasStoreTest, ReadsAreZeroCopyViewsOfOneMapping) {
  auto id = store_->PushAll(Pattern(4096, 7));
  ASSERT_TRUE(id.ok());
  auto a = store_->Read(*id, ByteRange{0, 1000});
  auto b = store_->Read(*id, ByteRange{2000, 1000});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->SharesBufferWith(*b));
}

TEST_F(CasStoreTest, OutOfRangeAndNotFound) {
  auto id = store_->PushAll(Pattern(100));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store_->Read(*id, ByteRange{50, 51}).status().IsOutOfRange());
  EXPECT_TRUE(store_->Read(999, ByteRange{0, 1}).status().IsNotFound());
  EXPECT_TRUE(store_->Size(999).status().IsNotFound());
  EXPECT_TRUE(store_->HashOf(999).status().IsNotFound());
  EXPECT_TRUE(store_->RefCount(999).status().IsNotFound());
  EXPECT_TRUE(
      store_->LookupHash(Sha256::Hash(Pattern(1))).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Mark-and-sweep GC.

TEST_F(CasStoreTest, SweepReclaimsDeadKeepsLive) {
  auto live = store_->PushAll(Pattern(1000, 1));
  auto dead1 = store_->PushAll(Pattern(2000, 2));
  auto dead2 = store_->PushAll(Pattern(3000, 3));
  ASSERT_TRUE(live.ok() && dead1.ok() && dead2.ok());

  auto stats = store_->Sweep({*live});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->scanned, 3u);
  EXPECT_EQ(stats->swept, 2u);
  EXPECT_EQ(stats->reclaimed_bytes, 5000u);
  EXPECT_EQ(stats->pinned, 0u);

  EXPECT_TRUE(store_->Exists(*live));
  EXPECT_FALSE(store_->Exists(*dead1));
  EXPECT_FALSE(store_->Exists(*dead2));
  EXPECT_EQ(*store_->ReadAll(*live), Pattern(1000, 1));

  // Re-pushing swept content works (fresh id — the old one is gone).
  auto again = store_->PushAll(Pattern(2000, 2));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*store_->ReadAll(*again), Pattern(2000, 2));
}

TEST_F(CasStoreTest, SweepSurvivesReopen) {
  auto live = store_->PushAll(Pattern(100, 1));
  auto dead = store_->PushAll(Pattern(200, 2));
  ASSERT_TRUE(live.ok() && dead.ok());
  ASSERT_TRUE(store_->Sweep({*live}).ok());
  store_.reset();
  auto reopened = CasBlobStore::Open(root_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->Exists(*live));
  EXPECT_FALSE((*reopened)->Exists(*dead));
}

// Concurrent pushes, pulls and sweeps (in the CI TSan filter): the
// store's full-synchronization contract. The live set handed to the
// sweeper protects a fixed group of blobs; those must stay readable
// with intact bytes throughout, while churn pushes and sweeps hammer
// the rest of the store.
TEST_F(CasStoreTest, ConcurrentPushPullSweep) {
  constexpr int kPushers = 4;
  constexpr int kReaders = 2;
  constexpr int kRounds = 50;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};

  // Blobs the GC must never touch.
  std::vector<Bytes> live_data;
  std::vector<BlobId> live_ids;
  for (uint8_t i = 0; i < 4; ++i) {
    live_data.push_back(Pattern(4096, static_cast<uint8_t>(100 + i)));
    auto id = store_->PushAll(live_data.back());
    ASSERT_TRUE(id.ok());
    live_ids.push_back(*id);
  }

  // Churn content shared by all pushers, so pushes dedup against each
  // other and race the sweeper on the same hashes (exercising the
  // condemned-pin path in FinishPush).
  std::vector<Bytes> pool;
  for (uint8_t i = 0; i < 8; ++i) pool.push_back(Pattern(2048, i));

  std::vector<std::thread> threads;
  for (int t = 0; t < kPushers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        // A push must always succeed, even when the sweeper is
        // condemning its hash mid-flight. (The blob it lands is
        // unreferenced and may be collected right after — that is the
        // GC working as intended, so readability is not asserted.)
        if (!store_->PushAll(pool[static_cast<size_t>((t + i) % 8)]).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        for (size_t i = 0; i < live_ids.size(); ++i) {
          auto read = store_->ReadAll(live_ids[i]);
          if (!read.ok() || !(*read == live_data[i])) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread sweeper([&] {
    while (!stop.load()) {
      auto stats = store_->Sweep(live_ids);
      if (!stats.ok()) failures.fetch_add(1);
    }
  });

  for (int t = 0; t < kPushers; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true);
  for (size_t t = kPushers; t < threads.size(); ++t) threads[t].join();
  sweeper.join();
  EXPECT_EQ(failures.load(), 0u);

  // The live blobs survived every sweep with their bytes intact.
  for (size_t i = 0; i < live_ids.size(); ++i) {
    EXPECT_EQ(*store_->ReadAll(live_ids[i]), live_data[i]);
  }
}

TEST_F(CasStoreTest, RacingPushNeverLosesBytes) {
  // A dedup push racing a sweep that condemns the same hash must pin
  // it: whatever id the push returns, the content behind it is either
  // fully readable or — if a *later* sweep collected the unreferenced
  // blob — cleanly absent. Never a live id with a missing or corrupt
  // file. Many rounds so the interleavings actually overlap.
  for (int round = 0; round < 50; ++round) {
    Bytes data = Pattern(4096, static_cast<uint8_t>(round));
    ASSERT_TRUE(store_->PushAll(data).ok());

    std::thread sweeper([&] {
      auto stats = store_->Sweep({});
      ASSERT_TRUE(stats.ok()) << stats.status();
    });
    auto second = store_->PushAll(data);
    sweeper.join();

    ASSERT_TRUE(second.ok()) << second.status();
    auto read = store_->ReadAll(*second);
    if (read.ok()) {
      ASSERT_EQ(*read, data) << "round " << round;
    } else {
      // The sweep ran after the push finished and collected the
      // unreferenced blob — allowed, but it must look fully deleted.
      ASSERT_TRUE(read.status().IsNotFound())
          << "round " << round << ": " << read.status();
      EXPECT_FALSE(store_->Exists(*second));
    }
    ASSERT_TRUE(store_->Sweep({}).ok());  // Clean slate for next round.
  }
}

}  // namespace
}  // namespace tbm
