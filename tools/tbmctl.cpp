// tbmctl — command-line inspector for tbm database directories.
//
//   tbmctl mkdemo <dbdir>                 create (or populate) a demo
//                                         database with one synthetic
//                                         media object "clip", for
//                                         trying serve/top/trace
//   tbmctl ls     <dbdir>                 list the catalog
//   tbmctl show   <dbdir> <name>          descriptor / entry details
//   tbmctl export <dbdir> <name> <out>    materialize and export
//                                         (.wav audio, .ppm/.pgm image,
//                                          video -> <out>_NNNN.ppm frames)
//   tbmctl play   <dbdir> <name>          simulate presentation timing
//   tbmctl eval   <dbdir> <name> [threads] [--quiet] [--prefetch N]
//                 [--stats] [--no-fuse]   materialize; engine statistics
//                                         go to stderr (--quiet omits them).
//                                         --prefetch N reads the BLOB
//                                         with N chunks of readahead
//                                         (0: synchronous chunk reads);
//                                         --stats dumps the metrics
//                                         registry after evaluation;
//                                         --no-fuse disables the plan
//                                         compiler (node-at-a-time)
//   tbmctl stats  <dbdir>                 storage + metrics statistics
//   tbmctl trace  <dbdir> <name> [-o trace.json]
//                                         materialize under the tracer and
//                                         write Chrome trace_event JSON
//                                         (open in chrome://tracing)
//   tbmctl serve  <dbdir> [sessions] [--object <name>] [--trace <out.json>]
//                                         demo the media service: N
//                                         loopback client sessions stream
//                                         the catalog's media objects
//                                         through admission control;
//                                         flight-recorder dumps of
//                                         sessions that ended badly go
//                                         to stderr; --trace writes the
//                                         merged client+server Chrome
//                                         trace of the whole run
//   tbmctl top    <dbdir> [--sessions N] [--object <name>]
//                 [--interval ms] [--once] [--prom]
//                                         live per-QoS SLO view: runs an
//                                         in-process server under N
//                                         looping loopback sessions and
//                                         renders p50/p95/p99 READ
//                                         latency, bytes, admits,
//                                         degrades, evicts and deadline
//                                         misses per QoS class from the
//                                         TELEMETRY frame. --once prints
//                                         a single snapshot; --prom
//                                         prints Prometheus text instead
//                                         of the table
//   tbmctl blob stat <dbdir>              BLOB tier occupancy; for a
//                                         content-addressed store also the
//                                         dedup ratio and per-hash refcounts
//   tbmctl blob gc <dbdir>                mark-and-sweep collection of
//                                         BLOBs no interpretation references
//   tbmctl db status <dbdir>              durability state: WAL LSNs,
//                                         segment/log sizes, checkpoint
//                                         position, and what recovery did
//                                         on this open
//   tbmctl db checkpoint <dbdir>          take a checkpoint now (fold the
//                                         WAL into the snapshot and
//                                         truncate it)
//
// A database directory whose BLOB tier is content-addressed (it has a
// cas/ledger.tbm) is detected automatically and opened over the CAS
// store; everything else opens over the classic file store.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "tbm.h"

using namespace tbm;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "tbmctl: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tbmctl mkdemo <dbdir>\n"
               "       tbmctl ls <dbdir>\n"
               "       tbmctl show <dbdir> <name>\n"
               "       tbmctl export <dbdir> <name> <out>\n"
               "       tbmctl play <dbdir> <name>\n"
               "       tbmctl eval <dbdir> <name> [threads] [--quiet] "
               "[--prefetch N] [--stats] [--no-fuse]\n"
               "       tbmctl stats <dbdir>\n"
               "       tbmctl trace <dbdir> <name> [-o trace.json]\n"
               "       tbmctl serve <dbdir> [sessions] [--object <name>]\n"
               "                  [--trace <out.json>]\n"
               "       tbmctl top <dbdir> [--sessions N] [--object <name>]\n"
               "                  [--interval ms] [--once] [--prom]\n"
               "       tbmctl blob stat <dbdir>\n"
               "       tbmctl blob gc <dbdir>\n"
               "       tbmctl db status <dbdir>\n"
               "       tbmctl db checkpoint <dbdir>\n");
  return 2;
}

int CmdLs(MediaDatabase* db) {
  std::printf("%-6s %-28s %-18s %s\n", "id", "name", "kind", "details");
  for (ObjectId id : db->List()) {
    auto lookup = db->Get(id);
    if (!lookup.ok()) return Fail(lookup.status());
    const CatalogEntry* entry = *lookup;
    std::string details;
    switch (entry->kind) {
      case CatalogKind::kDerivedObject:
        details = entry->op + "(" + std::to_string(entry->inputs.size()) +
                  " input" + (entry->inputs.size() == 1 ? "" : "s") + ")";
        break;
      case CatalogKind::kMediaObject:
        details = "stream \"" + entry->stream_name + "\" of interp " +
                  std::to_string(entry->interpretation_ref);
        break;
      case CatalogKind::kMultimediaObject:
        details = std::to_string(entry->components.size()) + " components";
        break;
      case CatalogKind::kInterpretation:
        details = "BLOB " + std::to_string(entry->interpretation.blob()) +
                  ", " + std::to_string(entry->interpretation.objects().size()) +
                  " objects";
        break;
      case CatalogKind::kEntity:
        details = std::to_string(entry->attrs.size()) + " attributes";
        break;
    }
    std::printf("%-6llu %-28s %-18s %s\n", (unsigned long long)id,
                entry->name.c_str(),
                std::string(CatalogKindToString(entry->kind)).c_str(),
                details.c_str());
  }
  return 0;
}

int CmdShow(MediaDatabase* db, const std::string& name) {
  auto id = db->FindByName(name);
  if (!id.ok()) return Fail(id.status());
  auto entry = db->Get(*id);
  if (!entry.ok()) return Fail(entry.status());
  std::printf("[%llu] %s — %s\n", (unsigned long long)*id,
              (*entry)->name.c_str(),
              std::string(CatalogKindToString((*entry)->kind)).c_str());
  if (!(*entry)->attrs.empty()) {
    std::printf("attributes:\n%s", (*entry)->attrs.ToString().c_str());
  }
  switch ((*entry)->kind) {
    case CatalogKind::kMediaObject: {
      auto stream = db->MaterializeStream(*id);
      if (!stream.ok()) return Fail(stream.status());
      std::printf("\n%s\n", stream->descriptor().ToString(name).c_str());
      std::printf("category: %s\n", Classify(*stream).ToString().c_str());
      std::printf("elements: %zu, span %.3f s, payload %s, mean rate %s\n",
                  stream->size(), stream->DurationSeconds().ToDouble(),
                  HumanBytes(stream->TotalBytes()).c_str(),
                  HumanRate(stream->MeanDataRate()).c_str());
      break;
    }
    case CatalogKind::kDerivedObject: {
      std::printf("derivation: %s\n", (*entry)->op.c_str());
      std::printf("inputs:");
      for (ObjectId input : (*entry)->inputs) {
        auto in_entry = db->Get(input);
        if (!in_entry.ok()) {
          std::printf("\n");
          return Fail(in_entry.status().WithContext(
              "resolving input " + std::to_string(input)));
        }
        std::printf(" %s", (*in_entry)->name.c_str());
      }
      std::printf("\nparameters:\n%s", (*entry)->params.ToString().c_str());
      auto record = db->DerivationRecordBytes(*id);
      if (record.ok()) {
        std::printf("derivation record: %llu bytes\n",
                    (unsigned long long)*record);
      }
      break;
    }
    case CatalogKind::kMultimediaObject: {
      auto view = db->Compose(*id);
      if (!view.ok()) return Fail(view.status());
      auto ascii = (*view)->object.RenderTimelineAscii(56);
      if (ascii.ok()) std::printf("\ntimeline:\n%s", ascii->c_str());
      break;
    }
    case CatalogKind::kInterpretation: {
      const Interpretation& interp = (*entry)->interpretation;
      auto blob_size = db->blob_store()->Size(interp.blob());
      std::printf("BLOB %llu (%s), coverage %.1f%%\n",
                  (unsigned long long)interp.blob(),
                  blob_size.ok() ? HumanBytes(*blob_size).c_str() : "?",
                  blob_size.ok() ? 100.0 * interp.Coverage(*blob_size) : 0.0);
      for (const InterpretedObject& object : interp.objects()) {
        std::printf("  object \"%s\": %zu elements, %s payload\n",
                    object.name.c_str(), object.elements.size(),
                    HumanBytes(object.PayloadBytes()).c_str());
      }
      break;
    }
    case CatalogKind::kEntity:
      break;
  }
  const RightsManager rights = db->rights();
  if (rights.IsProtected(*id)) {
    auto record = rights.Get(*id);
    if (record.ok()) {
      std::printf("rights: owner %s%s%s\n", (*record)->owner.c_str(),
                  (*record)->copyright_notice.empty() ? "" : ", ",
                  (*record)->copyright_notice.c_str());
    }
  }
  return 0;
}

bool EndsWith(const std::string& text, const char* suffix) {
  size_t n = std::strlen(suffix);
  return text.size() >= n && text.compare(text.size() - n, n, suffix) == 0;
}

int CmdExport(MediaDatabase* db, const std::string& name,
              const std::string& out) {
  auto id = db->FindByName(name);
  if (!id.ok()) return Fail(id.status());
  auto value = db->Materialize(*id);
  if (!value.ok()) return Fail(value.status());
  switch (KindOfValue(*value)) {
    case MediaKind::kAudio: {
      if (!EndsWith(out, ".wav")) {
        std::fprintf(stderr, "tbmctl: audio exports to .wav\n");
        return 2;
      }
      if (auto s = WriteWav(std::get<AudioBuffer>(*value), out); !s.ok()) {
        return Fail(s);
      }
      std::printf("wrote %s\n", out.c_str());
      return 0;
    }
    case MediaKind::kImage: {
      if (auto s = WritePnm(std::get<Image>(*value), out); !s.ok()) {
        return Fail(s);
      }
      std::printf("wrote %s\n", out.c_str());
      return 0;
    }
    case MediaKind::kVideo: {
      const VideoValue& video = std::get<VideoValue>(*value);
      for (size_t i = 0; i < video.frames.size(); ++i) {
        char path[512];
        std::snprintf(path, sizeof(path), "%s_%04zu.ppm", out.c_str(), i);
        if (auto s = WritePnm(video.frames[i], path); !s.ok()) {
          return Fail(s);
        }
      }
      std::printf("wrote %zu frames to %s_NNNN.ppm\n", video.frames.size(),
                  out.c_str());
      return 0;
    }
    default:
      std::fprintf(stderr, "tbmctl: no exporter for this media kind\n");
      return 2;
  }
}

int CmdPlay(MediaDatabase* db, const std::string& name) {
  auto id = db->FindByName(name);
  if (!id.ok()) return Fail(id.status());
  auto stream = db->MaterializeStream(*id);
  if (!stream.ok()) return Fail(stream.status());
  PlaybackConfig config;
  config.seconds_per_megabyte = 0.02;
  config.load_noise_us = 500.0;
  config.buffer_delay_ms = 10.0;
  auto report = SimulatePlayback({&*stream}, config);
  if (!report.ok()) return Fail(report.status());
  std::printf(
      "simulated playback of \"%s\": %lld elements, %lld misses, "
      "mean lateness %.1f us, pipeline utilization %.2f\n",
      name.c_str(), (long long)report->total_elements,
      (long long)report->total_misses, report->mean_lateness_us,
      report->utilization);
  return 0;
}

int CmdEval(MediaDatabase* db, const std::string& name, int threads,
            bool quiet, int prefetch, bool dump_metrics, bool fuse) {
  auto id = db->FindByName(name);
  if (!id.ok()) return Fail(id.status());
  EvalOptions options;
  options.threads = threads;
  options.fuse = fuse;
  db->set_eval_options(options);
  StreamReadOptions read_options;
  read_options.prefetch_depth = prefetch;
  db->set_read_options(read_options);
  auto value = db->Materialize(*id);
  if (!value.ok()) return Fail(value.status());
  std::printf("materialized \"%s\": %s, %s expanded\n", name.c_str(),
              std::string(MediaKindToString(KindOfValue(*value))).c_str(),
              HumanBytes(ExpandedBytes(*value)).c_str());
  // Statistics go to stderr so stdout stays scriptable.
  if (!quiet) {
    if (threads == 0) {
      std::fprintf(stderr, "engine (threads=auto):\n%s",
                   db->last_eval_stats().ToString().c_str());
    } else {
      std::fprintf(stderr, "engine (threads=%d):\n%s", threads,
                   db->last_eval_stats().ToString().c_str());
    }
  }
  if (dump_metrics) {
    obs::MetricsSnapshot metrics = obs::Registry::Global().Snapshot();
    if (metrics.empty()) {
      std::fprintf(stderr,
                   "tbmctl: metrics registry is empty "
                   "(built with TBM_OBS_DISABLED?)\n");
    } else {
      std::fprintf(stderr, "metrics:\n%s", metrics.ToString().c_str());
    }
  }
  return 0;
}

// Streams every requested media object through the serve layer as
// multiplexed streams over in-process loopback connections — a
// self-contained demonstration of admission, degradation, and the v2
// wire protocol against a real database directory. With `trace_out`
// non-empty, the run happens under the span tracer and the merged
// client+server timeline is written as Chrome trace_event JSON (each
// connection is one trace id; its streams are spans within it).
int CmdServe(MediaDatabase* db, int sessions, const std::string& object_name,
             const std::string& trace_out) {
  if (!trace_out.empty()) obs::Tracer::Global().Clear();
  std::vector<std::string> names;
  if (!object_name.empty()) {
    auto id = db->FindByName(object_name);
    if (!id.ok()) return Fail(id.status());
    auto entry = db->Get(*id);
    if (!entry.ok()) return Fail(entry.status());
    if ((*entry)->kind != CatalogKind::kMediaObject) {
      std::fprintf(stderr, "tbmctl: \"%s\" is not a media object\n",
                   object_name.c_str());
      return 2;
    }
    names.push_back(object_name);
  } else {
    for (ObjectId id : db->List()) {
      auto entry = db->Get(id);
      if (entry.ok() && (*entry)->kind == CatalogKind::kMediaObject) {
        names.push_back((*entry)->name);
      }
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "tbmctl: database has no media objects to serve\n");
    return 2;
  }
  if (sessions <= 0) sessions = static_cast<int>(names.size());

  serve::MediaServer server(db);
  struct Outcome {
    std::string object;
    Status status = Status::OK();
    serve::SessionStatsWire stats;
    uint32_t admitted_stride = 1;
  };
  std::vector<Outcome> outcomes(static_cast<size_t>(sessions));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(sessions));

  // Sessions are multiplexed streams now: one loopback connection
  // carries up to max_streams_per_connection of them, so open only as
  // many connections as the session count requires.
  const int per_connection =
      static_cast<int>(serve::ServeConfig{}.max_streams_per_connection);
  const int connection_count =
      (sessions + per_connection - 1) / per_connection;
  std::vector<std::unique_ptr<serve::Connection>> connections;
  std::vector<Status> adoption;
  for (int c = 0; c < connection_count; ++c) {
    auto [client_end, server_end] = serve::CreateLoopbackPair();
    Status adopted = server.Serve(std::move(server_end));
    adoption.push_back(adopted);
    connections.push_back(
        adopted.ok() ? serve::Connect(std::move(client_end)) : nullptr);
  }

  for (int i = 0; i < sessions; ++i) {
    Outcome& outcome = outcomes[static_cast<size_t>(i)];
    outcome.object = names[static_cast<size_t>(i) % names.size()];
    const size_t slot = static_cast<size_t>(i / per_connection);
    serve::Connection* connection = connections[slot].get();
    if (connection == nullptr) {
      outcome.status = adoption[slot];
      continue;
    }
    threads.emplace_back([&outcome, connection] {
      auto stream = connection->OpenStream(outcome.object);
      if (!stream.ok()) {
        outcome.status = stream.status();
        return;
      }
      outcome.admitted_stride = (*stream)->info().stride;
      bool end_of_stream = false;
      while (!end_of_stream) {
        auto batch = (*stream)->Read(16);
        if (!batch.ok()) {
          outcome.status = batch.status();
          return;
        }
        end_of_stream = batch->end_of_stream;
      }
      auto stats = (*stream)->Stats();
      if (!stats.ok()) {
        outcome.status = stats.status();
        return;
      }
      outcome.stats = *stats;
      (void)(*stream)->Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  connections.clear();
  server.Stop();

  std::printf("%-4s %-24s %-10s %-7s %10s %8s %12s\n", "#", "object", "state",
              "stride", "delivered", "skipped", "bytes");
  for (int i = 0; i < sessions; ++i) {
    const Outcome& outcome = outcomes[static_cast<size_t>(i)];
    if (!outcome.status.ok()) {
      std::printf("%-4d %-24s %s\n", i, outcome.object.c_str(),
                  outcome.status.ToString().c_str());
      continue;
    }
    std::printf("%-4d %-24s %-10s %-7u %10llu %8llu %12s\n", i,
                outcome.object.c_str(),
                std::string(serve::SessionStateToString(outcome.stats.state))
                    .c_str(),
                outcome.stats.stride,
                (unsigned long long)outcome.stats.elements_delivered,
                (unsigned long long)outcome.stats.elements_skipped,
                HumanBytes(outcome.stats.bytes_sent).c_str());
  }
  serve::ServerStatsSnapshot stats = server.stats();
  std::printf(
      "server: %llu admitted (%llu degraded), %llu denied, %llu evicted, "
      "%llu requests, %s sent\n",
      (unsigned long long)stats.sessions_admitted,
      (unsigned long long)stats.sessions_degraded,
      (unsigned long long)stats.sessions_denied,
      (unsigned long long)stats.sessions_evicted,
      (unsigned long long)stats.requests,
      HumanBytes(stats.response_bytes).c_str());
  // Post-mortems of sessions that ended badly (evicted or lossy) go to
  // stderr — stdout stays scriptable.
  for (const std::string& dump : server.flight_dumps()) {
    std::fprintf(stderr, "%s", dump.c_str());
  }
  if (!trace_out.empty()) {
    std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Collect();
    if (Status s = obs::WriteChromeTrace(spans, trace_out); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %zu spans to %s (open in chrome://tracing; each "
                "connection's client+server spans share one trace id)\n",
                spans.size(), trace_out.c_str());
  }
  return 0;
}

// Renders one telemetry snapshot as a per-QoS-class SLO table. Metric
// families are the serve.* names from DESIGN.md §13; labeled variants
// are stored as `name{qos=<class>}` and parsed back apart here.
void RenderQosTable(const obs::MetricsSnapshot& snapshot) {
  auto gauge = snapshot.gauges.find("serve.sessions");
  std::printf("live sessions: %lld\n",
              gauge != snapshot.gauges.end() ? (long long)gauge->second : 0);
  std::printf("%-8s %10s %9s %9s %9s %12s %8s %9s %7s %7s\n", "qos", "reads",
              "p50us", "p95us", "p99us", "bytes", "admits", "degrades",
              "evicts", "misses");
  const char* kClasses[] = {"s1", "s2", "s4", "s8", "s16plus"};
  auto labeled_counter = [&](const char* base, const char* qos) -> uint64_t {
    auto it = snapshot.counters.find(std::string(base) + "{qos=" + qos + "}");
    return it != snapshot.counters.end() ? it->second : 0;
  };
  for (const char* qos : kClasses) {
    auto hist = snapshot.histograms.find(std::string("serve.read_us{qos=") +
                                         qos + "}");
    uint64_t admits = labeled_counter("serve.admitted", qos);
    if (hist == snapshot.histograms.end() && admits == 0) continue;
    const obs::HistogramSnapshot empty;
    const obs::HistogramSnapshot& h =
        hist != snapshot.histograms.end() ? hist->second : empty;
    std::printf("%-8s %10llu %9.0f %9.0f %9.0f %12s %8llu %9llu %7llu "
                "%7llu\n",
                qos, (unsigned long long)h.count, h.P50(), h.P95(), h.P99(),
                HumanBytes(labeled_counter("serve.read_bytes", qos)).c_str(),
                (unsigned long long)admits,
                (unsigned long long)labeled_counter("serve.degraded", qos),
                (unsigned long long)labeled_counter("serve.evicted", qos),
                (unsigned long long)labeled_counter("serve.deadline_miss",
                                                    qos));
  }
}

// Live per-QoS SLO view: an in-process server, N looping loopback load
// sessions, and a TELEMETRY scraper rendering each snapshot.
int CmdTop(MediaDatabase* db, int sessions, const std::string& object_name,
           int interval_ms, bool once, bool prom) {
  std::vector<std::string> names;
  if (!object_name.empty()) {
    names.push_back(object_name);
  } else {
    for (ObjectId id : db->List()) {
      auto entry = db->Get(id);
      if (entry.ok() && (*entry)->kind == CatalogKind::kMediaObject) {
        names.push_back((*entry)->name);
      }
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "tbmctl: database has no media objects to serve\n");
    return 2;
  }
  if (sessions <= 0) sessions = 4;
  if (interval_ms <= 0) interval_ms = 1000;

  serve::MediaServer server(db);
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  load.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    const std::string& object = names[static_cast<size_t>(i) % names.size()];
    load.emplace_back([&server, &stop, object] {
      // Each load thread holds one connection and repeatedly opens a
      // stream, reads it to the end, and closes it — a steady request
      // stream for the scraper to observe.
      auto [client_end, server_end] = serve::CreateLoopbackPair();
      if (!server.Serve(std::move(server_end)).ok()) return;
      auto connection = serve::Connect(std::move(client_end));
      while (!stop.load(std::memory_order_relaxed)) {
        auto stream = connection->OpenStream(object);
        if (!stream.ok()) return;
        bool end_of_stream = false;
        while (!end_of_stream && !stop.load(std::memory_order_relaxed)) {
          auto batch = (*stream)->Read(8);
          if (!batch.ok()) break;
          end_of_stream = batch->end_of_stream;
        }
        (void)(*stream)->Close();
      }
    });
  }

  int exit_code = 0;
  {
    auto [client_end, server_end] = serve::CreateLoopbackPair();
    if (Status adopted = server.Serve(std::move(server_end)); !adopted.ok()) {
      exit_code = Fail(adopted);
    } else {
      auto scraper = serve::Connect(std::move(client_end));
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
        auto telemetry = scraper->Telemetry();
        if (!telemetry.ok()) {
          exit_code = Fail(telemetry.status());
          break;
        }
        if (prom) {
          std::fputs(obs::ToPrometheusText(*telemetry).c_str(), stdout);
        } else {
          if (!once) std::fputs("\x1b[2J\x1b[H", stdout);  // Clear screen.
          RenderQosTable(*telemetry);
        }
        std::fflush(stdout);
        if (once) break;
      }
    }
  }

  stop.store(true, std::memory_order_relaxed);
  server.Stop();  // Unblocks any client parked in Recv.
  for (std::thread& thread : load) thread.join();
  for (const std::string& dump : server.flight_dumps()) {
    std::fprintf(stderr, "%s", dump.c_str());
  }
  return exit_code;
}

// Synthesizes a demo database in place: one audio media object "clip"
// (64 elements x 4000 bytes at 25 elements/s = 100 kB/s booked rate),
// so the serve demos (`tbmctl serve`, `tbmctl top`) have something to
// stream without ingesting real media first.
int CmdMkdemo(MediaDatabase* db) {
  if (db->FindByName("clip").ok()) {
    std::fprintf(stderr, "tbmctl: database already has a 'clip' object\n");
    return 0;  // Idempotent: re-running is not an error.
  }
  auto capture = CaptureSession::Begin(db->blob_store());
  if (!capture.ok()) return Fail(capture.status());
  MediaDescriptor descriptor;
  descriptor.type_name = "audio/pcm-block";
  descriptor.kind = MediaKind::kAudio;
  auto handle = capture->DeclareObject("clip", descriptor, TimeSystem(25));
  if (!handle.ok()) return Fail(handle.status());
  constexpr int kDemoElements = 64;
  constexpr int kDemoElementBytes = 4000;
  Bytes element(kDemoElementBytes);
  for (int i = 0; i < kDemoElements; ++i) {
    for (int j = 0; j < kDemoElementBytes; ++j) {
      element[static_cast<size_t>(j)] =
          static_cast<uint8_t>(i * 131 + j * 7 + 3);
    }
    if (Status s = capture->CaptureContiguous(*handle, element, 1); !s.ok()) {
      return Fail(s);
    }
  }
  auto interpretation = capture->Finish();
  if (!interpretation.ok()) return Fail(interpretation.status());
  auto interp_id = db->AddInterpretation("clip_interp", *interpretation);
  if (!interp_id.ok()) return Fail(interp_id.status());
  if (auto obj = db->AddMediaObject("clip", *interp_id, "clip"); !obj.ok()) {
    return Fail(obj.status());
  }
  if (Status s = db->Checkpoint(); !s.ok()) return Fail(s);
  std::printf("created media object \"clip\": %d elements, %d bytes each, "
              "%d elements/s\n",
              kDemoElements, kDemoElementBytes, 25);
  return 0;
}

int CmdTrace(MediaDatabase* db, const std::string& name,
             const std::string& out_path) {
  auto id = db->FindByName(name);
  if (!id.ok()) return Fail(id.status());
  obs::Tracer::Global().Clear();
  int64_t t0 = obs::NowTicksNs();
  auto value = db->Materialize(*id);
  int64_t t1 = obs::NowTicksNs();
  if (!value.ok()) return Fail(value.status());
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Collect();
  if (auto s = obs::WriteChromeTrace(spans, out_path); !s.ok()) {
    return Fail(s);
  }
  // Coverage: merged span intervals against the materialize wall time
  // (span clocks and t0/t1 tick together, so interval lengths are
  // directly comparable).
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(spans.size());
  for (const obs::SpanRecord& span : spans) {
    intervals.emplace_back(span.start_ns, span.start_ns + span.duration_ns);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0, cur_start = 0, cur_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  int64_t wall = t1 - t0;
  std::printf("traced \"%s\": %zu spans", name.c_str(), spans.size());
  if (wall > 0) {
    std::printf(", covering %.1f%% of %.3f ms materialize wall",
                100.0 * static_cast<double>(covered) /
                    static_cast<double>(wall),
                static_cast<double>(wall) / 1e6);
  }
  std::printf("\nwrote %s (open in chrome://tracing)\n", out_path.c_str());
  if (spans.empty()) {
    std::fprintf(stderr,
                 "tbmctl: no spans recorded (built with TBM_OBS_DISABLED?)\n");
  }
  return 0;
}

int CmdStats(MediaDatabase* db, const std::string& dir) {
  std::printf("database: %s\n", dir.c_str());
  std::printf("catalog objects: %zu\n", db->size());
  int counts[5] = {0};
  for (ObjectId id : db->List()) {
    auto entry = db->Get(id);
    if (!entry.ok()) return Fail(entry.status());
    ++counts[static_cast<int>((*entry)->kind)];
  }
  const char* names[5] = {"entities", "interpretations", "media objects",
                          "derived objects", "multimedia objects"};
  for (int i = 0; i < 5; ++i) {
    std::printf("  %-20s %d\n", names[i], counts[i]);
  }
  uint64_t blob_bytes = 0;
  auto blobs = db->blob_store()->List();
  for (BlobId blob : blobs) {
    auto size = db->blob_store()->Size(blob);
    if (size.ok()) blob_bytes += *size;
  }
  std::printf("BLOBs: %zu holding %s\n", blobs.size(),
              HumanBytes(blob_bytes).c_str());
  obs::MetricsSnapshot metrics = obs::Registry::Global().Snapshot();
  if (!metrics.empty()) {
    std::printf("metrics (this process):\n%s", metrics.ToString().c_str());
  }
  return 0;
}

int CmdBlobStat(MediaDatabase* db) {
  const auto* cas = dynamic_cast<const CasBlobStore*>(db->blob_store());
  if (cas == nullptr) {
    uint64_t blob_bytes = 0;
    auto blobs = db->blob_store()->List();
    for (BlobId blob : blobs) {
      auto size = db->blob_store()->Size(blob);
      if (size.ok()) blob_bytes += *size;
    }
    std::printf("store: not content-addressed\n");
    std::printf("BLOBs: %zu holding %s\n", blobs.size(),
                HumanBytes(blob_bytes).c_str());
    return 0;
  }
  CasStoreStats stats = cas->Stats();
  std::printf("store: content-addressed (%s)\n", cas->root().c_str());
  std::printf("distinct blobs:  %llu\n", (unsigned long long)stats.blob_count);
  std::printf("logical bytes:   %s\n", HumanBytes(stats.logical_bytes).c_str());
  std::printf("stored bytes:    %s\n", HumanBytes(stats.stored_bytes).c_str());
  std::printf("dedup ratio:     %.2fx\n", stats.dedup_ratio());
  // Push counters reset with the process; on a freshly opened store
  // they describe this invocation, while the byte figures above come
  // from the persistent ledger.
  std::printf("pushes:          %llu this session (%llu dedup hits)\n",
              (unsigned long long)stats.pushes,
              (unsigned long long)stats.dedup_hits);
  std::printf("%-6s %-16s %5s %12s\n", "id", "hash", "refs", "size");
  for (BlobId id : cas->List()) {
    auto hash = cas->HashOf(id);
    auto refs = cas->RefCount(id);
    auto size = cas->Size(id);
    if (!hash.ok() || !refs.ok() || !size.ok()) continue;
    std::printf("%-6llu %-16s %5u %12s\n", (unsigned long long)id,
                hash->ToHex().substr(0, 16).c_str(), *refs,
                HumanBytes(*size).c_str());
  }
  return 0;
}

int CmdDbStatus(MediaDatabase* db, const std::string& dir) {
  wal::WalStatus status = db->wal_status();
  if (!status.enabled) {
    std::printf("database: %s (no WAL — in-memory?)\n", dir.c_str());
    return 0;
  }
  std::printf("database:         %s\n", dir.c_str());
  std::printf("catalog objects:  %zu\n", db->size());
  std::printf("last LSN:         %llu\n",
              (unsigned long long)status.last_lsn);
  std::printf("durable LSN:      %llu\n",
              (unsigned long long)status.durable_lsn);
  std::printf("checkpoint LSN:   %llu (%llu checkpoint%s taken)\n",
              (unsigned long long)status.checkpoint_lsn,
              (unsigned long long)status.checkpoint_count,
              status.checkpoint_count == 1 ? "" : "s");
  std::printf("log:              %zu segment%s, %s\n", status.segments,
              status.segments == 1 ? "" : "s",
              HumanBytes(status.wal_bytes).c_str());
  wal::RecoveryStats recovery = db->recovery_stats();
  if (recovery.replayed > 0 || recovery.torn_tail ||
      recovery.discarded_bytes > 0) {
    std::printf("recovery (this open): snapshot LSN %llu, replayed %llu, "
                "skipped %llu, discarded %s%s, %llu us\n",
                (unsigned long long)recovery.snapshot_lsn,
                (unsigned long long)recovery.replayed,
                (unsigned long long)recovery.skipped,
                HumanBytes(recovery.discarded_bytes).c_str(),
                recovery.torn_tail ? " (torn tail)" : "",
                (unsigned long long)recovery.recovery_us);
  } else {
    std::printf("recovery (this open): clean, nothing to replay\n");
  }
  return 0;
}

int CmdDbCheckpoint(MediaDatabase* db) {
  wal::WalStatus before = db->wal_status();
  if (Status s = db->Checkpoint(); !s.ok()) return Fail(s);
  wal::WalStatus after = db->wal_status();
  std::printf("checkpoint %llu at LSN %llu: log %s -> %s\n",
              (unsigned long long)after.checkpoint_count,
              (unsigned long long)after.checkpoint_lsn,
              HumanBytes(before.wal_bytes).c_str(),
              HumanBytes(after.wal_bytes).c_str());
  return 0;
}

int CmdBlobGc(MediaDatabase* db) {
  auto stats = db->CollectBlobGarbage();
  if (!stats.ok()) return Fail(stats.status());
  std::printf(
      "collected: %llu live, %llu swept (%s reclaimed), %llu pinned, "
      "pause %llu us\n",
      (unsigned long long)stats->live, (unsigned long long)stats->swept,
      HumanBytes(stats->reclaimed_bytes).c_str(),
      (unsigned long long)stats->pinned, (unsigned long long)stats->pause_us);
  return 0;
}

// On a fatal signal, dump every live session's flight recorder to
// stderr before dying: the crash post-mortem this tool exists to
// demonstrate. Best-effort — the process is already doomed, so the
// non-async-signal-safe string work is an acceptable gamble.
extern "C" void FlightCrashHandler(int sig) {
  std::string dumps = tbm::obs::DumpAllFlightRecorders("fatal signal");
  if (!dumps.empty()) {
    ssize_t ignored = write(2, dumps.data(), dumps.size());
    (void)ignored;
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGSEGV, &FlightCrashHandler);
  std::signal(SIGABRT, &FlightCrashHandler);
  if (argc < 3) return Usage();
  std::string command = argv[1];
  std::string subcommand;
  int dir_arg = 2;
  if (command == "blob" || command == "db") {
    if (argc < 4) return Usage();
    subcommand = argv[2];
    dir_arg = 3;
  }
  std::string dir = argv[dir_arg];

  // A cas/ledger.tbm marks the directory's BLOB tier as
  // content-addressed; open over the matching store.
  auto db = [&dir]() -> Result<std::unique_ptr<MediaDatabase>> {
    if (std::filesystem::exists(dir + "/cas/ledger.tbm")) {
      auto store = CasBlobStore::Open(dir + "/cas");
      if (!store.ok()) return store.status();
      return MediaDatabase::Open(dir, std::move(*store));
    }
    return MediaDatabase::Open(dir);
  }();
  if (!db.ok()) return Fail(db.status());

  if (command == "blob") {
    if (subcommand == "stat") return CmdBlobStat(db->get());
    if (subcommand == "gc") return CmdBlobGc(db->get());
    return Usage();
  }
  if (command == "db") {
    if (subcommand == "status") return CmdDbStatus(db->get(), dir);
    if (subcommand == "checkpoint") return CmdDbCheckpoint(db->get());
    return Usage();
  }

  if (command == "mkdemo") return CmdMkdemo(db->get());
  if (command == "ls") return CmdLs(db->get());
  if (command == "stats") return CmdStats(db->get(), dir);
  if (command == "show" && argc >= 4) return CmdShow(db->get(), argv[3]);
  if (command == "play" && argc >= 4) return CmdPlay(db->get(), argv[3]);
  if (command == "eval" && argc >= 4) {
    int threads = 1;
    bool quiet = false;
    int prefetch = StreamReadOptions{}.prefetch_depth;
    bool dump_metrics = false;
    bool fuse = true;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quiet") == 0) {
        quiet = true;
      } else if (std::strcmp(argv[i], "--stats") == 0) {
        dump_metrics = true;
      } else if (std::strcmp(argv[i], "--no-fuse") == 0) {
        fuse = false;
      } else if (std::strcmp(argv[i], "--prefetch") == 0 && i + 1 < argc) {
        prefetch = std::atoi(argv[++i]);
      } else {
        threads = std::atoi(argv[i]);
      }
    }
    if (threads < 0 || prefetch < 0) return Usage();
    return CmdEval(db->get(), argv[3], threads, quiet, prefetch, dump_metrics,
                   fuse);
  }
  if (command == "serve") {
    int sessions = 0;
    std::string object_name;
    std::string trace_out;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--object") == 0 && i + 1 < argc) {
        object_name = argv[++i];
      } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_out = argv[++i];
      } else {
        sessions = std::atoi(argv[i]);
        if (sessions <= 0) return Usage();
      }
    }
    return CmdServe(db->get(), sessions, object_name, trace_out);
  }
  if (command == "top") {
    int sessions = 0;
    int interval_ms = 0;
    bool once = false;
    bool prom = false;
    std::string object_name;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--object") == 0 && i + 1 < argc) {
        object_name = argv[++i];
      } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
        sessions = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
        interval_ms = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--once") == 0) {
        once = true;
      } else if (std::strcmp(argv[i], "--prom") == 0) {
        prom = true;
      } else {
        return Usage();
      }
    }
    return CmdTop(db->get(), sessions, object_name, interval_ms, once, prom);
  }
  if (command == "trace" && argc >= 4) {
    std::string out = "trace.json";
    for (int i = 4; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "-o") == 0) out = argv[i + 1];
    }
    return CmdTrace(db->get(), argv[3], out);
  }
  if (command == "export" && argc >= 5) {
    return CmdExport(db->get(), argv[3], argv[4]);
  }
  return Usage();
}
