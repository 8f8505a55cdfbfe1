// Tests for the observability subsystem (src/obs/): histogram bucket
// boundaries and quantile estimation, counter/histogram exactness
// under thread contention, span nesting and cross-thread parenting,
// ring-buffer wraparound, Chrome trace serialization, and the
// TBM_OBS_DISABLED no-op mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tbm::obs {
namespace {

#ifndef TBM_OBS_DISABLED

// ---------------------------------------------------------------------------
// Histogram buckets & quantiles

TEST(ObsHistogramTest, BucketBoundaries) {
  // Bucket 0 holds values <= 1; bucket i holds (2^(i-1), 2^i].
  EXPECT_EQ(HistogramBucketIndex(0), 0);
  EXPECT_EQ(HistogramBucketIndex(1), 0);
  EXPECT_EQ(HistogramBucketIndex(2), 1);
  EXPECT_EQ(HistogramBucketIndex(3), 2);
  EXPECT_EQ(HistogramBucketIndex(4), 2);
  EXPECT_EQ(HistogramBucketIndex(5), 3);
  EXPECT_EQ(HistogramBucketIndex(8), 3);
  EXPECT_EQ(HistogramBucketIndex(9), 4);
  // Exact powers of two land in the bucket they bound.
  for (int i = 1; i < kHistogramBuckets - 1; ++i) {
    EXPECT_EQ(HistogramBucketIndex(1ull << i), i) << "2^" << i;
    EXPECT_EQ(HistogramBucketIndex((1ull << i) + 1), i + 1) << "2^" << i
                                                            << "+1";
  }
  // The last bucket absorbs everything, up to UINT64_MAX.
  EXPECT_EQ(HistogramBucketIndex(UINT64_MAX), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketBound(kHistogramBuckets - 1), UINT64_MAX);
  // Bounds are inclusive upper limits consistent with the index map.
  for (int i = 0; i < kHistogramBuckets - 1; ++i) {
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketBound(i)), i);
  }
}

TEST(ObsHistogramTest, SnapshotCountsSumMinMax) {
  Histogram h;
  for (uint64_t v : {5u, 10u, 100u, 1000u, 3u}) h.Record(v);
  HistogramSnapshot snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_EQ(snapshot.sum, 1118u);
  EXPECT_EQ(snapshot.min, 3u);
  EXPECT_EQ(snapshot.max, 1000u);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 1118.0 / 5);
  uint64_t bucket_total = 0;
  for (uint64_t b : snapshot.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 5u);
}

TEST(ObsHistogramTest, QuantilesClampToObservedRange) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(50);  // One bucket: (32, 64].
  HistogramSnapshot snapshot = h.Snapshot();
  // Every quantile of a constant distribution is that constant.
  EXPECT_EQ(snapshot.P50(), 50.0);
  EXPECT_EQ(snapshot.P95(), 50.0);
  EXPECT_EQ(snapshot.P99(), 50.0);
}

TEST(ObsHistogramTest, QuantilesOrderAcrossBuckets) {
  Histogram h;
  // 90 small values, 10 large ones: p50 must sit low, p99 high.
  for (int i = 0; i < 90; ++i) h.Record(4);
  for (int i = 0; i < 10; ++i) h.Record(4096);
  HistogramSnapshot snapshot = h.Snapshot();
  EXPECT_LE(snapshot.P50(), 8.0);
  EXPECT_GE(snapshot.P99(), 2048.0);
  EXPECT_LE(snapshot.P99(), 4096.0);
  EXPECT_LE(snapshot.P50(), snapshot.P95());
  EXPECT_LE(snapshot.P95(), snapshot.P99());
  // Degenerate cases.
  EXPECT_EQ(HistogramSnapshot{}.P50(), 0.0);
  EXPECT_EQ(snapshot.Quantile(0.0), snapshot.min);
  EXPECT_EQ(snapshot.Quantile(1.0), snapshot.max);
}

// ---------------------------------------------------------------------------
// Contention exactness

TEST(ObsContentionTest, CounterExactUnderThreads) {
  Registry registry;
  Counter* counter = registry.counter("contended");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsContentionTest, HistogramExactCountAndSumUnderThreads) {
  Registry registry;
  Histogram* histogram = registry.histogram("contended_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Record(static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<uint64_t>(t + 1) * kPerThread;
  }
  EXPECT_EQ(snapshot.sum, expected_sum);
  EXPECT_EQ(snapshot.min, 1u);
  EXPECT_EQ(snapshot.max, static_cast<uint64_t>(kThreads));
}

TEST(ObsContentionTest, RegistryHandleIsStableAcrossLookups) {
  Registry registry;
  Counter* first = registry.counter("stable");
  // Force rebalancing pressure with many other instruments.
  for (int i = 0; i < 100; ++i) {
    registry.counter("other_" + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("stable"), first);
  first->Add(7);
  EXPECT_EQ(registry.Snapshot().counters.at("stable"), 7u);
}

TEST(ObsRegistryTest, SnapshotAndReset) {
  Registry registry;
  registry.counter("c")->Add(3);
  registry.gauge("g")->Set(-5);
  registry.histogram("h")->Record(42);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c"), 3u);
  EXPECT_EQ(snapshot.gauges.at("g"), -5);
  EXPECT_EQ(snapshot.histograms.at("h").count, 1u);
  EXPECT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.ToString().find("c"), std::string::npos);
  EXPECT_NE(snapshot.ToJson().find("\"counters\""), std::string::npos);
  registry.Reset();
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("c"), 0u);
  EXPECT_EQ(after.histograms.at("h").count, 0u);
}

TEST(ObsRegistryTest, LabeledHandlesMangleAndStayDistinct) {
  Registry registry;
  Counter* s1 = registry.counter("serve.admitted", "qos", "s1");
  Counter* s2 = registry.counter("serve.admitted", "qos", "s2");
  Counter* plain = registry.counter("serve.admitted");
  EXPECT_NE(s1, s2);
  EXPECT_NE(s1, plain);
  // Repeat lookups return the same handle (cacheable at the site).
  EXPECT_EQ(registry.counter("serve.admitted", "qos", "s1"), s1);
  EXPECT_EQ(registry.gauge("g", "k", "v"), registry.gauge("g", "k", "v"));
  EXPECT_EQ(registry.histogram("h", "k", "v"),
            registry.histogram("h", "k", "v"));

  s1->Add(3);
  s2->Add(5);
  plain->Add(7);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.admitted{qos=s1}"), 3u);
  EXPECT_EQ(snapshot.counters.at("serve.admitted{qos=s2}"), 5u);
  EXPECT_EQ(snapshot.counters.at("serve.admitted"), 7u);
}

// Regression: Snapshot() order must be sorted by name — exporters and
// goldens rely on it — and labeled variants of one base name must sit
// adjacent (they share the base as a prefix).
TEST(ObsRegistryTest, SnapshotOrderIsSortedAndDeterministic) {
  Registry registry;
  // Registered deliberately out of order.
  registry.counter("zeta")->Add(1);
  registry.counter("serve.read_bytes", "qos", "s4")->Add(1);
  registry.counter("alpha")->Add(1);
  registry.counter("serve.read_bytes", "qos", "s1")->Add(1);
  registry.counter("serve.read_bytes")->Add(1);
  registry.gauge("mid")->Set(2);
  registry.histogram("hist.b")->Record(1);
  registry.histogram("hist.a")->Record(1);

  MetricsSnapshot first = registry.Snapshot();
  std::vector<std::string> counter_names;
  for (const auto& [name, value] : first.counters) {
    counter_names.push_back(name);
  }
  EXPECT_TRUE(std::is_sorted(counter_names.begin(), counter_names.end()));
  std::vector<std::string> expected = {
      "alpha", "serve.read_bytes", "serve.read_bytes{qos=s1}",
      "serve.read_bytes{qos=s4}", "zeta"};
  EXPECT_EQ(counter_names, expected);
  ASSERT_EQ(first.histograms.size(), 2u);
  EXPECT_EQ(first.histograms.begin()->first, "hist.a");

  // Repeated snapshots render byte-identically.
  MetricsSnapshot second = registry.Snapshot();
  EXPECT_EQ(first.ToString(), second.ToString());
  EXPECT_EQ(first.ToJson(), second.ToJson());
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, RingKeepsNewestEvents) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(FlightEventType::kNote, "event", i, i * 2);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i);  // Oldest-first, newest retained.
    EXPECT_EQ(events[i].b, (6 + i) * 2);
    EXPECT_GE(events[i].t_us, 0);
  }
}

TEST(FlightRecorderTest, SnapshotBelowCapacityIsComplete) {
  FlightRecorder recorder;
  recorder.Record(FlightEventType::kAdmit, "admitted", 1);
  recorder.Record(FlightEventType::kState, "STREAMING");
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, FlightEventType::kAdmit);
  EXPECT_EQ(events[1].type, FlightEventType::kState);
}

TEST(FlightRecorderTest, DumpNamesLabelCauseAndEvents) {
  FlightRecorder recorder;
  recorder.set_label("session 7 clip");
  recorder.Record(FlightEventType::kAdmit, "admitted", 1, 10000);
  recorder.Record(FlightEventType::kDegrade, "stride doubled", 1, 2);
  recorder.Record(FlightEventType::kEvict, "slow client", 12);
  std::string dump = recorder.Dump("send stalled");
  EXPECT_NE(dump.find("session 7 clip"), std::string::npos) << dump;
  EXPECT_NE(dump.find("send stalled"), std::string::npos);
  EXPECT_NE(dump.find("3 events recorded"), std::string::npos);
  EXPECT_NE(dump.find("ADMIT"), std::string::npos);
  EXPECT_NE(dump.find("DEGRADE"), std::string::npos);
  EXPECT_NE(dump.find("stride doubled"), std::string::npos);
  EXPECT_NE(dump.find("a=1 b=2"), std::string::npos);
  // Event order in the text matches recording order.
  EXPECT_LT(dump.find("ADMIT"), dump.find("DEGRADE"));
  EXPECT_LT(dump.find("DEGRADE"), dump.find("EVICT"));
  // Empty cause gets the default wording.
  EXPECT_NE(recorder.Dump("").find("dump requested"), std::string::npos);
}

TEST(FlightRecorderTest, DumpAllSeesEveryLiveRecorder) {
  FlightRecorder first;
  first.set_label("recorder-one");
  first.Record(FlightEventType::kNote, "alive");
  std::string all;
  {
    FlightRecorder second;
    second.set_label("recorder-two");
    second.Record(FlightEventType::kNote, "alive");
    all = DumpAllFlightRecorders("test sweep");
    EXPECT_NE(all.find("recorder-two"), std::string::npos);
  }
  EXPECT_NE(all.find("recorder-one"), std::string::npos);
  EXPECT_NE(all.find("test sweep"), std::string::npos);
  // Destroyed recorders drop out of later sweeps.
  EXPECT_EQ(DumpAllFlightRecorders("again").find("recorder-two"),
            std::string::npos);
}

// TSan target: one session recording while a dumper snapshots.
TEST(FlightRecorderTest, ConcurrentRecordAndDumpAreSafe) {
  FlightRecorder recorder;
  recorder.set_label("contended");
  constexpr uint64_t kWrites = 2000;
  std::thread writer([&] {
    for (uint64_t i = 0; i < kWrites; ++i) {
      recorder.Record(FlightEventType::kNote, "tick", i);
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::string dump = recorder.Dump("concurrent");
    EXPECT_NE(dump.find("contended"), std::string::npos);
    (void)DumpAllFlightRecorders("concurrent");
    (void)recorder.Snapshot();
  }
  writer.join();
  EXPECT_EQ(recorder.recorded(), kWrites);
}

TEST(FlightRecorderTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kState), "STATE");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kAdmit), "ADMIT");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kDegrade), "DEGRADE");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kSeek), "SEEK");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kFault), "FAULT");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kSlowRead), "SLOW_READ");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kEvict), "EVICT");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kNote), "NOTE");
}

// ---------------------------------------------------------------------------
// ThreadPool instrumentation (hooks installed by obs at static init).

#ifndef TBM_OBS_DISABLED
TEST(ObsPoolTest, PoolReportsDepthAndTaskLatency) {
  auto& registry = Registry::Global();
  HistogramSnapshot task_before = registry.histogram("pool.task_us")->Snapshot();
  HistogramSnapshot wait_before =
      registry.histogram("pool.queue_wait_us")->Snapshot();

  constexpr int kTasks = 32;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // Destructor drains the queue.
  EXPECT_EQ(ran.load(), kTasks);

  // Every task reports exactly one (queue_wait, run) sample.
  HistogramSnapshot task_after = registry.histogram("pool.task_us")->Snapshot();
  HistogramSnapshot wait_after =
      registry.histogram("pool.queue_wait_us")->Snapshot();
  EXPECT_EQ(task_after.count - task_before.count, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(wait_after.count - wait_before.count, static_cast<uint64_t>(kTasks));

  // The gauge tracks the live queue; after the pool drained it reads 0.
  EXPECT_EQ(registry.Snapshot().gauges.at("pool.queue_depth"), 0);
}

TEST(ObsPoolTest, QueueDepthVisibleWhileBlocked) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  ThreadPool pool(1);
  pool.Submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  pool.Submit([] {});
  pool.Submit([] {});
  // Once the single worker is pinned inside the first task, exactly
  // the other two tasks are waiting in the queue.
  while (!started.load()) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 2);
  release.store(true);
}
#endif  // !TBM_OBS_DISABLED

// State for StaleDepthNeverOverwritesNewer's hook, which must be a
// plain function pointer.
struct DepthProbe {
  std::mutex mu;
  std::vector<std::pair<std::thread::id, int64_t>> reports;
  std::thread::id submitter;
  std::atomic<bool> ran{false};
};
std::atomic<DepthProbe*> g_depth_probe{nullptr};

void ProbeQueueDepth(int64_t depth) {
  DepthProbe* installed = g_depth_probe.load();
  if (installed == nullptr) return;
  DepthProbe& probe = *installed;
  if (std::this_thread::get_id() == probe.submitter) {
    // Hold the submitter's report back until the worker has had the
    // chance to dequeue and run the task (bounded, so a report made
    // under the queue lock cannot deadlock the test).
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (!probe.ran.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::lock_guard<std::mutex> lock(probe.mu);
  probe.reports.emplace_back(std::this_thread::get_id(), depth);
}

TEST(ObsPoolTest, StaleDepthNeverOverwritesNewer) {
  // A submitter delayed between computing its depth and reporting it
  // must not land its report after the worker's newer one: the last
  // report on an idle pool is 0.
  DepthProbe probe;
  probe.submitter = std::this_thread::get_id();
  g_depth_probe.store(&probe);
  ThreadPoolHooks hooks;
  hooks.on_queue_depth = &ProbeQueueDepth;
  ThreadPoolHooks previous = ThreadPool::InstallHooks(hooks);
  std::thread::id worker;
  {
    ThreadPool pool(1);
    pool.Submit([&probe, &worker] {
      worker = std::this_thread::get_id();
      probe.ran.store(true);
    });
  }  // Joins the worker.
  ThreadPool::InstallHooks(previous);
  g_depth_probe.store(nullptr);

  // Other pools in the process may report too; keep this pool's two
  // threads only.
  std::vector<int64_t> depths;
  for (const auto& [thread, depth] : probe.reports) {
    if (thread == probe.submitter || thread == worker) depths.push_back(depth);
  }
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths.back(), 0);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(ObsTraceTest, SpansNestOnOneThread) {
  Tracer tracer;
  uint64_t outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer(&tracer, "outer");
    outer_id = outer.span_id();
    {
      ScopedSpan inner(&tracer, "inner");
      inner_id = inner.span_id();
      EXPECT_EQ(Tracer::CurrentSpanId(), inner_id);
    }
    EXPECT_EQ(Tracer::CurrentSpanId(), outer_id);
  }
  EXPECT_EQ(Tracer::CurrentSpanId(), 0u);
  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& span : spans) by_name[span.name] = span;
  EXPECT_EQ(by_name.at("outer").parent_id, 0u);
  EXPECT_EQ(by_name.at("inner").parent_id, outer_id);
  EXPECT_EQ(by_name.at("inner").span_id, inner_id);
  // The child is contained in the parent.
  EXPECT_GE(by_name.at("inner").start_ns, by_name.at("outer").start_ns);
  EXPECT_LE(by_name.at("inner").start_ns + by_name.at("inner").duration_ns,
            by_name.at("outer").start_ns + by_name.at("outer").duration_ns);
}

TEST(ObsTraceTest, ExplicitParentCrossesThreads) {
  Tracer tracer;
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&tracer, "parent");
    parent_id = parent.span_id();
    std::thread worker([&tracer, parent_id] {
      // A worker has no thread-local current span; the explicit parent
      // keeps the edge.
      EXPECT_EQ(Tracer::CurrentSpanId(), 0u);
      ScopedSpan child(&tracer, "child", parent_id);
    });
    worker.join();
  }
  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  std::set<uint32_t> thread_ids;
  for (const SpanRecord& span : spans) {
    thread_ids.insert(span.thread_id);
    if (std::string(span.name) == "child") {
      EXPECT_EQ(span.parent_id, parent_id);
    }
  }
  EXPECT_EQ(thread_ids.size(), 2u);  // Two distinct recording threads.
}

TEST(ObsTraceTest, RingWrapsKeepingNewestSpans) {
  Tracer tracer;
  const size_t total = Tracer::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    ScopedSpan span(&tracer, "wrap");
  }
  std::vector<SpanRecord> spans = tracer.Collect();
  EXPECT_EQ(spans.size(), Tracer::kRingCapacity);
  // The survivors are the newest spans: the last kRingCapacity of the
  // sequentially-assigned ids (whose base is randomized per tracer for
  // cross-process uniqueness, so only relative positions are stable).
  uint64_t min_id = UINT64_MAX, max_id = 0;
  for (const SpanRecord& span : spans) {
    min_id = std::min(min_id, span.span_id);
    max_id = std::max(max_id, span.span_id);
  }
  EXPECT_EQ(max_id - min_id + 1, Tracer::kRingCapacity);
  EXPECT_GT(min_id, 0u);
}

TEST(ObsTraceTest, ClearForgetsRecordedSpans) {
  Tracer tracer;
  { ScopedSpan span(&tracer, "before"); }
  tracer.Clear();
  EXPECT_TRUE(tracer.Collect().empty());
  { ScopedSpan span(&tracer, "after"); }
  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "after");
}

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  {
    ScopedSpan span(&tracer, "muted");
    EXPECT_EQ(span.span_id(), 0u);
  }
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST(ObsTraceTest, InternReturnsStablePointer) {
  Tracer tracer;
  const char* a = tracer.Intern("dynamic_name");
  const char* b = tracer.Intern(std::string("dynamic") + "_name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "dynamic_name");
}

TEST(ObsTraceTest, ConcurrentWritersAllSpansSurvive) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;  // Well under the ring capacity.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&tracer, "worker");
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<SpanRecord> spans = tracer.Collect();
  EXPECT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  std::set<uint64_t> ids;
  for (const SpanRecord& span : spans) ids.insert(span.span_id);
  EXPECT_EQ(ids.size(), spans.size());  // All distinct.
}

TEST(ObsTraceTest, ExitedThreadRingIsReused) {
  Tracer tracer;
  constexpr int kThreads = 200;
  for (int t = 0; t < kThreads; ++t) {
    std::thread worker([&tracer] { ScopedSpan span(&tracer, "short"); });
    worker.join();
  }
  std::vector<SpanRecord> spans = tracer.Collect();
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads));
  std::set<uint32_t> thread_ids;
  for (const SpanRecord& span : spans) thread_ids.insert(span.thread_id);
  // Each worker exits before the next starts, so its ring (and id) is
  // handed on instead of a new ring being allocated per thread.
  EXPECT_LE(thread_ids.size(), 2u);
}

#else  // TBM_OBS_DISABLED

// ---------------------------------------------------------------------------
// No-op mode: instruments are empty and methods compile to nothing.

static_assert(sizeof(Counter) == 1, "disabled Counter must be empty");
static_assert(sizeof(Gauge) == 1, "disabled Gauge must be empty");
static_assert(sizeof(Histogram) == 1, "disabled Histogram must be empty");
static_assert(sizeof(ScopedSpan) == 1, "disabled ScopedSpan must be empty");
static_assert(Tracer::kRingCapacity == 0,
              "disabled Tracer must not reserve ring space");

TEST(ObsDisabledTest, EverythingIsInertButSafe) {
  EXPECT_EQ(NowTicksNs(), 0);
  auto& registry = Registry::Global();
  Counter* counter = registry.counter("ignored");
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 0u);
  registry.gauge("g")->Set(9);
  EXPECT_EQ(registry.gauge("g")->Value(), 0);
  registry.histogram("h")->Record(1234);
  EXPECT_EQ(registry.histogram("h")->Snapshot().count, 0u);
  EXPECT_TRUE(registry.Snapshot().empty());

  auto& tracer = Tracer::Global();
  { ScopedSpan span("noop"); }
  EXPECT_TRUE(tracer.Collect().empty());
  EXPECT_EQ(Tracer::CurrentSpanId(), 0u);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(NewTraceId(), 0u);

  FlightRecorder recorder;
  recorder.set_label("inert");
  recorder.Record(FlightEventType::kEvict, "ignored", 1, 2);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_TRUE(recorder.Dump("cause").empty());
  EXPECT_TRUE(DumpAllFlightRecorders("cause").empty());
}

#endif  // TBM_OBS_DISABLED

// ---------------------------------------------------------------------------
// Chrome trace export (mode-independent plain-data path)

TEST(ObsTraceTest, ChromeTraceJsonShape) {
  std::vector<SpanRecord> spans;
  SpanRecord parent;
  parent.name = "derive.evaluate";
  parent.span_id = 1;
  parent.thread_id = 0;
  parent.start_ns = 1000;
  parent.duration_ns = 9000;
  SpanRecord child;
  child.name = "derive:video edit";
  child.span_id = 2;
  child.parent_id = 1;
  child.thread_id = 1;
  child.start_ns = 2000;
  child.duration_ns = 3000;
  spans.push_back(parent);
  spans.push_back(child);
  std::string json = ToChromeTraceJson(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"derive.evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"derive:video edit\""), std::string::npos);
  // Times are exported in microseconds.
  EXPECT_NE(json.find("\"ts\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":9"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);

  std::string path =
      (std::filesystem::temp_directory_path() / "tbm_obs_test_trace.json")
          .string();
  ASSERT_TRUE(WriteChromeTrace(spans, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::filesystem::remove(path);
}

TEST(ObsTraceTest, ChromeTraceJsonEmptyInput) {
  std::string json = ToChromeTraceJson({});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("[]"), std::string::npos);
}

}  // namespace
}  // namespace tbm::obs
