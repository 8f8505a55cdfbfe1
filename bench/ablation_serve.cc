// Serve-layer ablation: the tentpole acceptance check for the
// multi-session media service. An in-memory database (one PCM-block
// clip) sits behind a FaultInjectingStore with a 5% transient read
// fault rate, and a MediaServer sized to admit exactly 64 sessions —
// 63 at full fidelity, the 64th at stride 2 — is offered 72.
//
// Phase 1 opens the 72 sessions sequentially so the admission order is
// exact: every denial must come after the first degraded admission
// (degrade-before-deny is the acceptance criterion, not a tendency).
// Phase 2 streams all admitted sessions concurrently over loopback
// transports; the global byte budget paces (and mid-stream degrades)
// them, retries absorb most injected faults, and every session must
// end DONE or DEGRADED with bit-exact payloads for every element it
// was delivered.
//
// Prints a JSON object with p50/p99 request latency and the
// admit/degrade/deny/evict counts; `-o <file>` also writes it to a
// file (the committed BENCH_serve.json at the repo root is one such
// run). Exits 1 on any acceptance violation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "blob/fault_store.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "interp/capture.h"
#include "serve/connection.h"
#include "serve/server.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kSessionsAttempted = 72;
constexpr int kRequiredAdmitted = 64;
constexpr int kElements = 32;
constexpr int kElementBytes = 512;
constexpr double kFaultRate = 0.05;

// One element per tick at 10 ticks/s: the clip's average rate.
constexpr double kClipRate = kElementBytes * 10.0;

Bytes ElementPayload(int index) {
  Bytes bytes(kElementBytes);
  for (int j = 0; j < kElementBytes; ++j) {
    bytes[static_cast<size_t>(j)] =
        static_cast<uint8_t>(index * 131 + j * 7 + 3);
  }
  return bytes;
}

std::unique_ptr<MediaDatabase> BuildDb(FaultInjectingStore** faulty_out) {
  FaultConfig faults;
  faults.read_fault_rate = kFaultRate;
  faults.seed = 17;
  auto faulty = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), faults);
  *faulty_out = faulty.get();
  auto db = MediaDatabase::CreateWithStore(std::move(faulty));
  auto capture = ValueOrDie(CaptureSession::Begin(db->blob_store()), "capture");
  MediaDescriptor descriptor;
  descriptor.type_name = "audio/pcm-block";
  descriptor.kind = MediaKind::kAudio;
  size_t handle =
      ValueOrDie(capture.DeclareObject("clip", descriptor, TimeSystem(10)),
                 "declare");
  for (int i = 0; i < kElements; ++i) {
    CheckOk(capture.CaptureContiguous(handle, ElementPayload(i), 1),
            "capture element");
  }
  auto interpretation = ValueOrDie(capture.Finish(), "finish capture");
  ObjectId interp_id = ValueOrDie(
      db->AddInterpretation("clip_interp", interpretation), "add interp");
  ValueOrDie(db->AddMediaObject("clip", interp_id, "clip"), "add object");
  return db;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) out_path = argv[i + 1];
  }

  FaultInjectingStore* faulty = nullptr;
  auto db = BuildDb(&faulty);

  serve::ServeConfig config;
  config.max_sessions = kSessionsAttempted + 8;
  // Room for 63 full-rate sessions plus one stride-2 tier: the 64th
  // admission must degrade, the 65th must be denied.
  config.capacity_bytes_per_second =
      (kRequiredAdmitted - 1) * kClipRate + kClipRate / 2.0;
  config.max_stride = 8;
  config.worker_threads = 8;
  config.io_threads = 4;
  config.budget_wait = std::chrono::milliseconds(100);
  config.read_options.policy.max_retries = 4;
  config.read_options.policy.backoff_initial_us = 50.0;
  serve::MediaServer sized_server(db.get(), config);

  // ---- Phase 1: sequential admissions (exact degrade-before-deny order).
  // One connection per viewer; the stream is declared second so it is
  // closed before its connection goes away.
  struct Viewer {
    std::unique_ptr<serve::Connection> connection;
    std::unique_ptr<serve::StreamHandle> stream;
  };
  std::vector<Viewer> viewers;
  int admitted_full = 0, admitted_degraded = 0, denied = 0;
  bool deny_before_degrade = false;
  for (int i = 0; i < kSessionsAttempted; ++i) {
    auto [client_end, server_end] = serve::CreateLoopbackPair();
    CheckOk(sized_server.Serve(std::move(server_end)), "adopt connection");
    auto connection = serve::Connect(std::move(client_end));
    auto open = connection->OpenStream("clip");
    if (!open.ok()) {
      ++denied;
      if (admitted_degraded == 0) deny_before_degrade = true;
      continue;
    }
    if ((*open)->info().stride > 1) {
      ++admitted_degraded;
    } else {
      ++admitted_full;
    }
    viewers.push_back({std::move(connection), std::move(*open)});
  }
  int admitted = admitted_full + admitted_degraded;

  // ---- Phase 2: stream every admitted session concurrently.
  std::mutex results_mu;
  std::vector<double> latencies_us;
  int bad_states = 0, payload_mismatches = 0, transport_failures = 0;
  uint64_t delivered_total = 0, skipped_total = 0;

  double wall_start = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  std::vector<std::thread> threads;
  threads.reserve(viewers.size());
  for (Viewer& viewer : viewers) {
    threads.emplace_back([&, client = viewer.stream.get()] {
      std::vector<double> local_latencies;
      int local_mismatches = 0;
      bool end_of_stream = false;
      for (int rounds = 0; !end_of_stream && rounds < 4 * kElements;
           ++rounds) {
        auto start = std::chrono::steady_clock::now();
        auto batch = client->Read(8);
        auto elapsed = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        if (!batch.ok()) {
          std::lock_guard<std::mutex> lock(results_mu);
          ++transport_failures;
          return;
        }
        local_latencies.push_back(elapsed);
        for (const serve::WireElement& element : batch->elements) {
          if (element.payload !=
              ElementPayload(static_cast<int>(element.element_number))) {
            ++local_mismatches;
          }
        }
        end_of_stream = batch->end_of_stream;
      }
      auto stats = client->Stats();
      std::lock_guard<std::mutex> lock(results_mu);
      latencies_us.insert(latencies_us.end(), local_latencies.begin(),
                          local_latencies.end());
      payload_mismatches += local_mismatches;
      if (!stats.ok()) {
        ++transport_failures;
        return;
      }
      delivered_total += stats->elements_delivered;
      skipped_total += stats->elements_skipped;
      if (stats->state != serve::SessionState::kDone &&
          stats->state != serve::SessionState::kDegraded) {
        ++bad_states;
      }
      (void)client->Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count() -
                   wall_start;
  sized_server.Stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  double p50 = Percentile(latencies_us, 0.50);
  double p99 = Percentile(latencies_us, 0.99);
  serve::ServerStatsSnapshot stats = sized_server.stats();

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"ablation_serve\",\n"
      " \"workload\": \"%d loopback sessions offered, %d-element clip, "
      "%d B/element, 5%% transient read faults\",\n"
      " \"sessions_attempted\": %d,\n"
      " \"sessions_admitted\": %d,\n"
      " \"admitted_full\": %d,\n"
      " \"admitted_degraded\": %d,\n"
      " \"sessions_denied\": %d,\n"
      " \"sessions_evicted\": %llu,\n"
      " \"degraded_total\": %llu,\n"
      " \"degrade_before_deny\": %s,\n"
      " \"requests\": %llu,\n"
      " \"read_p50_us\": %.1f,\n"
      " \"read_p99_us\": %.1f,\n"
      " \"injected_read_faults\": %llu,\n"
      " \"elements_delivered\": %llu,\n"
      " \"elements_skipped\": %llu,\n"
      " \"response_bytes\": %llu,\n"
      " \"stream_wall_ms\": %.1f,\n"
      " \"payload_mismatches\": %d,\n"
      " \"sessions_not_done_or_degraded\": %d}\n",
      kSessionsAttempted, kElements, kElementBytes, kSessionsAttempted,
      admitted, admitted_full, admitted_degraded, denied,
      static_cast<unsigned long long>(stats.sessions_evicted),
      static_cast<unsigned long long>(stats.sessions_degraded),
      deny_before_degrade ? "false" : "true",
      static_cast<unsigned long long>(stats.requests), p50, p99,
      static_cast<unsigned long long>(faulty->injected_read_faults()),
      static_cast<unsigned long long>(delivered_total),
      static_cast<unsigned long long>(skipped_total),
      static_cast<unsigned long long>(stats.response_bytes), wall_ms,
      payload_mismatches, bad_states);
  std::printf("%s", json);

  int failures = 0;
  if (admitted < kRequiredAdmitted) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: admitted %d < %d sessions\n",
                 admitted, kRequiredAdmitted);
    ++failures;
  }
  if (deny_before_degrade) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: a session was denied before any "
                 "degraded admission\n");
    ++failures;
  }
  if (denied == 0) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: overload never reached denial — "
                 "capacity is not binding\n");
    ++failures;
  }
  if (bad_states != 0 || transport_failures != 0) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: %d sessions not DONE/DEGRADED, "
                 "%d transport failures\n",
                 bad_states, transport_failures);
    ++failures;
  }
  if (stats.sessions_evicted != 0) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %llu sessions evicted\n",
                 static_cast<unsigned long long>(stats.sessions_evicted));
    ++failures;
  }
  if (payload_mismatches != 0) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %d payload mismatches\n",
                 payload_mismatches);
    ++failures;
  }
  if (faulty->injected_read_faults() == 0) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: the fault injector never fired\n");
    ++failures;
  }
  if (failures != 0) return 1;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) { return tbm::Run(argc, argv); }
