// Substrate ablation: BLOB storage layout. The paper (Def. 4) treats
// BLOB layout as a performance concern hidden from the data model.
// This bench shows both halves of that claim over the three stores —
// contiguous memory, one file per BLOB, and content-addressed shards
// (mmap): at startup it checks that every store returns byte-identical
// data for the same pushes (layout is invisible), then its benchmarks
// measure what the layout costs — push and read throughput, random
// element-sized reads, and compact-index build cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "blob/cas_store.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"
#include "interp/index.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

namespace fs = std::filesystem;

enum class StoreKind { kMemory, kFile, kCas };

constexpr StoreKind kAllStores[] = {StoreKind::kMemory, StoreKind::kFile,
                                    StoreKind::kCas};

const char* StoreName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kMemory: return "memory";
    case StoreKind::kFile: return "file";
    case StoreKind::kCas: return "cas";
  }
  return "unknown";
}

std::string ScratchDir(const char* tag) {
  static int counter = 0;
  std::string dir = (fs::temp_directory_path() /
                     ("tbm_bench_blob_" + std::string(tag) + "_" +
                      std::to_string(counter++)))
                        .string();
  fs::remove_all(dir);
  return dir;
}

/// Opens an empty store of `kind`; the file and CAS stores live under
/// `dir`, which the caller removes afterwards.
std::unique_ptr<BlobStore> OpenStore(StoreKind kind, const std::string& dir) {
  switch (kind) {
    case StoreKind::kMemory:
      return std::make_unique<MemoryBlobStore>();
    case StoreKind::kFile:
      return ValueOrDie(FileBlobStore::Open(dir), "open file store");
    case StoreKind::kCas:
      return ValueOrDie(CasBlobStore::Open(dir), "open cas store");
  }
  return nullptr;
}

/// Distinct content per seed, so the CAS store never dedups two pushes
/// the other stores keep separately.
Bytes Payload(size_t n, uint32_t seed = 1) {
  Bytes data(n);
  uint32_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    data[i] = static_cast<uint8_t>(x >> 24);
  }
  return data;
}

BlobId PushInSpans(BlobStore* store, const Bytes& data, size_t span) {
  auto push = ValueOrDie(store->StartPush(), "start push");
  for (size_t off = 0; off < data.size(); off += span) {
    size_t take = std::min(span, data.size() - off);
    CheckOk(push->Push(ByteSpan(data.data() + off, take)), "push");
  }
  return ValueOrDie(push->Finish(), "finish");
}

// One audio element: 1764 frames of 16-bit stereo (25 fps at 44.1 kHz).
constexpr uint64_t kAudioElement = 1764 * 4;

void PrintAblation() {
  bench::Header(
      "Ablation: BLOB store layout (paper Def. 4: \"the layout of BLOBs\n"
      "is a performance issue and not directly relevant to data\n"
      "modeling\") — same bytes, different cost");

  // Layout invisibility: the same pushes read back byte-identical from
  // every store, or the bench aborts.
  constexpr int kBlobs = 4;
  constexpr size_t kBlobBytes = 2 << 20;
  std::vector<Bytes> corpus;
  for (int i = 0; i < kBlobs; ++i) {
    corpus.push_back(Payload(kBlobBytes + 4093 * i, i + 1));
  }
  std::printf("ReadAll identity (%d blobs, pushed in 64 KiB spans):\n",
              kBlobs);
  for (StoreKind kind : kAllStores) {
    std::string dir = ScratchDir(StoreName(kind));
    std::unique_ptr<BlobStore> store = OpenStore(kind, dir);
    for (const Bytes& data : corpus) {
      BlobId id = PushInSpans(store.get(), data, 64 << 10);
      BufferSlice read = ValueOrDie(store->ReadAll(id), "read all");
      if (!(read == data)) {
        std::fprintf(stderr, "FATAL: %s store returned different bytes\n",
                     StoreName(kind));
        std::abort();
      }
    }
    std::printf("  %-6s: byte-identical\n", StoreName(kind));
    store.reset();
    fs::remove_all(dir);
  }
}

// --- Push throughput --------------------------------------------------------

void BM_Append(benchmark::State& state, StoreKind kind) {
  const size_t chunk_size = static_cast<size_t>(state.range(0));
  Bytes first = Payload(chunk_size);
  Bytes chunk = Payload(chunk_size, 2);
  std::string dir = ScratchDir("append");
  std::unique_ptr<BlobStore> store = OpenStore(kind, dir);
  uint64_t serial = 0;
  for (auto _ : state) {
    // A serial number in the first bytes keeps every BLOB distinct, so
    // the CAS store never dedups.
    ++serial;
    std::memcpy(first.data(), &serial, std::min(sizeof(serial), chunk_size));
    auto push = ValueOrDie(store->StartPush(), "start push");
    CheckOk(push->Push(first), "push");
    for (int i = 1; i < 64; ++i) {
      CheckOk(push->Push(chunk), "push");
    }
    BlobId id = ValueOrDie(push->Finish(), "finish");
    // Deleting keeps the disk footprint at one BLOB; it is not timed.
    state.PauseTiming();
    CheckOk(store->Delete(id), "delete");
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * 64 * chunk_size);
  store.reset();
  fs::remove_all(dir);
}
BENCHMARK_CAPTURE(BM_Append, memory, StoreKind::kMemory)
    ->Arg(4096)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_Append, file, StoreKind::kFile)->Arg(65536);
BENCHMARK_CAPTURE(BM_Append, cas, StoreKind::kCas)->Arg(65536);

// --- Read throughput: one whole 1 MiB BLOB ----------------------------------

void BM_Read(benchmark::State& state, StoreKind kind) {
  std::string dir = ScratchDir("read");
  std::unique_ptr<BlobStore> store = OpenStore(kind, dir);
  BlobId id = ValueOrDie(store->PushAll(Payload(1 << 20)), "push");
  for (auto _ : state) {
    auto data = store->Read(id, ByteRange{0, 1 << 20});
    CheckOk(data.status(), "read");
    benchmark::DoNotOptimize(data->data());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
  store.reset();
  fs::remove_all(dir);
}
BENCHMARK_CAPTURE(BM_Read, memory, StoreKind::kMemory);
BENCHMARK_CAPTURE(BM_Read, file, StoreKind::kFile);
BENCHMARK_CAPTURE(BM_Read, cas, StoreKind::kCas);

// --- Random element-sized reads (media access pattern) ----------------------

void BM_RandomElementReads(benchmark::State& state, StoreKind kind) {
  std::string dir = ScratchDir("random");
  std::unique_ptr<BlobStore> store = OpenStore(kind, dir);
  BlobId id = ValueOrDie(store->PushAll(Payload(4 << 20)), "push");
  uint64_t offset = 0;
  const uint64_t element = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto data = store->Read(id, ByteRange{offset, element});
    CheckOk(data.status(), "read");
    benchmark::DoNotOptimize(data->data());
    offset = (offset + 777 * element) % ((4 << 20) - element);
  }
  state.SetBytesProcessed(state.iterations() * element);
  store.reset();
  fs::remove_all(dir);
}
BENCHMARK_CAPTURE(BM_RandomElementReads, memory, StoreKind::kMemory)
    ->Arg(kAudioElement)
    ->Arg(20000);
BENCHMARK_CAPTURE(BM_RandomElementReads, file, StoreKind::kFile)
    ->Arg(kAudioElement)
    ->Arg(20000);
BENCHMARK_CAPTURE(BM_RandomElementReads, cas, StoreKind::kCas)
    ->Arg(kAudioElement)
    ->Arg(20000);

// --- Index construction -----------------------------------------------------

void BM_BuildCompactIndex(benchmark::State& state) {
  InterpretedObject object;
  object.name = "v";
  object.time_system = TimeSystem(25);
  const int64_t n = state.range(0);
  uint64_t offset = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t size = 15000 + (i * 97) % 2000;
    object.elements.push_back({i, i, 1, ByteRange{offset, size}, {}});
    offset += size;
  }
  for (auto _ : state) {
    CompactElementIndex index = CompactElementIndex::Build(object);
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildCompactIndex)->Range(256, 16384);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  bool stats = tbm::bench::ConsumeFlag(&argc, argv, "--stats");
  tbm::PrintAblation();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  if (stats) tbm::bench::PrintRegistrySnapshot();
  return 0;
}
