#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "blob/cas_store.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/database.h"
#include "interp/av_capture.h"

namespace tbm {
namespace {

// Captures a small interleaved A/V clip into `db` and registers the
// interpretation plus both media objects. Returns
// (video object id, audio object id).
std::pair<ObjectId, ObjectId> IngestClip(MediaDatabase* db,
                                         const std::string& prefix,
                                         uint32_t scene,
                                         const std::string& language = "") {
  std::vector<Image> frames = videogen::Clip(48, 32, 25, scene);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 1.1);
  AvCaptureConfig config;
  config.video_name = prefix + "_video";
  config.audio_name = prefix + "_audio";
  auto capture = CaptureInterleavedAv(db->blob_store(), frames, audio, config);
  EXPECT_TRUE(capture.ok()) << capture.status();
  auto interp = db->AddInterpretation(prefix + "_interp",
                                      capture->interpretation);
  EXPECT_TRUE(interp.ok()) << interp.status();
  auto video = db->AddMediaObject(prefix + "_video", *interp,
                                  config.video_name);
  AttrMap audio_attrs;
  if (!language.empty()) audio_attrs.SetString("language", language);
  auto audio_obj = db->AddMediaObject(prefix + "_audio", *interp,
                                      config.audio_name, audio_attrs);
  EXPECT_TRUE(video.ok() && audio_obj.ok());
  return {*video, *audio_obj};
}

// ---------------------------------------------------------------------------
// Catalog basics

TEST(DbTest, EntityCrud) {
  auto db = MediaDatabase::CreateInMemory();
  AttrMap attrs;
  attrs.SetString("title", "Vertigo");
  attrs.SetString("director", "Hitchcock");
  auto id = db->AddEntity("clip1", attrs);
  ASSERT_TRUE(id.ok());
  auto entry = db->Get(*id);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->kind, CatalogKind::kEntity);
  EXPECT_EQ(*(*entry)->attrs.GetString("title"), "Vertigo");
  EXPECT_EQ(*db->FindByName("clip1"), *id);
  EXPECT_TRUE(db->FindByName("nope").status().IsNotFound());
  EXPECT_TRUE(db->AddEntity("clip1", {}).status().IsAlreadyExists());
  EXPECT_TRUE(db->AddEntity("", {}).status().IsInvalidArgument());
}

TEST(DbTest, InterpretationMustReferenceExistingBlob) {
  auto db = MediaDatabase::CreateInMemory();
  Interpretation dangling(12345);
  EXPECT_TRUE(
      db->AddInterpretation("x", dangling).status().IsNotFound());
}

TEST(DbTest, MediaObjectRequiresValidStreamName) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "a", 1);
  auto interp_id = db->FindByName("a_interp");
  ASSERT_TRUE(interp_id.ok());
  EXPECT_TRUE(db->AddMediaObject("bad", *interp_id, "no_such_stream")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      db->AddMediaObject("bad2", video, "x").status().IsInvalidArgument());
}

TEST(DbTest, QueriesByAttribute) {
  // The paper's introduction: "a digital movie with audio tracks in
  // different languages ... select a specific sound track."
  auto db = MediaDatabase::CreateInMemory();
  auto [v1, english] = IngestClip(db.get(), "movie_en", 1, "English");
  auto [v2, german] = IngestClip(db.get(), "movie_de", 2, "German");
  (void)v1;
  (void)v2;
  auto hits = db->SelectByAttr("language", AttrValue(std::string("German")));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], german);
  hits = db->SelectByAttr("language", AttrValue(std::string("English")));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], english);
  EXPECT_TRUE(
      db->SelectByAttr("language", AttrValue(std::string("Klingon"))).empty());
}

TEST(DbTest, SelectByKind) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "kinds", 3);
  auto videos = db->SelectByKind(MediaKind::kVideo);
  auto audios = db->SelectByKind(MediaKind::kAudio);
  ASSERT_EQ(videos.size(), 1u);
  ASSERT_EQ(audios.size(), 1u);
  EXPECT_EQ(videos[0], video);
  EXPECT_EQ(audios[0], audio);
}

TEST(DbTest, MediaValuedAttributes) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "m", 4);
  (void)audio;
  AttrMap attrs;
  attrs.SetString("title", "Demo");
  auto entity = db->AddEntity("videoclip1", attrs);
  ASSERT_TRUE(entity.ok());
  ASSERT_TRUE(db->SetMediaAttr(*entity, "content", video).ok());
  auto ref = db->GetMediaAttr(*entity, "content");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(*ref, video);
  // Must reference a media-ish object.
  EXPECT_TRUE(
      db->SetMediaAttr(*entity, "bad", *entity).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Materialization

TEST(DbTest, MaterializeStreamAndSpan) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "mat", 5);
  (void)audio;
  auto stream = db->MaterializeStream(video);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->size(), 25u);
  auto span = db->MaterializeStreamSpan(video, TickSpan{10, 5});
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->size(), 5u);
  EXPECT_EQ(span->at(0).start, 10);
}

TEST(DbTest, MaterializeDecodesTypedValue) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "typed", 6);
  auto video_value = db->Materialize(video);
  ASSERT_TRUE(video_value.ok());
  EXPECT_EQ(KindOfValue(*video_value), MediaKind::kVideo);
  EXPECT_EQ(std::get<VideoValue>(*video_value).frames.size(), 25u);
  auto audio_value = db->Materialize(audio);
  ASSERT_TRUE(audio_value.ok());
  const AudioBuffer& buffer = std::get<AudioBuffer>(*audio_value);
  EXPECT_EQ(buffer.sample_rate, 44100);
  EXPECT_EQ(buffer.channels, 2);
}

TEST(DbTest, DerivedObjectsEvaluate) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "derv", 7);
  (void)audio;
  AttrMap cut_params;
  cut_params.SetInt("start frame", 5);
  cut_params.SetInt("frame count", 10);
  auto cut = db->AddDerivedObject("cut1", "video edit", {video}, cut_params);
  ASSERT_TRUE(cut.ok());
  auto value = db->Materialize(*cut);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(), 10u);
  // Chain: cut of a cut.
  AttrMap cut2;
  cut2.SetInt("start frame", 0);
  cut2.SetInt("frame count", 3);
  auto nested = db->AddDerivedObject("cut2", "video edit", {*cut}, cut2);
  ASSERT_TRUE(nested.ok());
  auto nested_value = db->Materialize(*nested);
  ASSERT_TRUE(nested_value.ok());
  EXPECT_EQ(std::get<VideoValue>(*nested_value).frames.size(), 3u);
}

TEST(DbTest, DerivedObjectValidation) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "val", 8);
  (void)audio;
  EXPECT_TRUE(db->AddDerivedObject("x", "no such op", {video}, {})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(db->AddDerivedObject("x", "video edit", {9999}, {})
                  .status()
                  .IsNotFound());
  auto entity = db->AddEntity("e", {});
  ASSERT_TRUE(entity.ok());
  EXPECT_TRUE(db->AddDerivedObject("x", "video edit", {*entity}, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(DbTest, DerivationRecordBytesSmall) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "rec", 9);
  (void)audio;
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 10);
  auto cut = db->AddDerivedObject("cut", "video edit", {video}, params);
  ASSERT_TRUE(cut.ok());
  auto record = db->DerivationRecordBytes(*cut);
  ASSERT_TRUE(record.ok());
  EXPECT_LT(*record, 200u);
  auto value = db->Materialize(*cut);
  ASSERT_TRUE(value.ok());
  EXPECT_GT(ExpandedBytes(*value) / *record, 100u);
}

TEST(DbTest, ExpandAndStoreCreatesNonDerivedObject) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "exp", 10);
  (void)audio;
  AttrMap params;
  params.SetInt("start frame", 2);
  params.SetInt("frame count", 6);
  auto cut = db->AddDerivedObject("cut", "video edit", {video}, params);
  ASSERT_TRUE(cut.ok());
  auto expanded = db->ExpandAndStore(*cut, "cut_expanded");
  ASSERT_TRUE(expanded.ok()) << expanded.status();
  auto entry = db->Get(*expanded);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->kind, CatalogKind::kMediaObject);
  // The stored expansion materializes as 6 frames.
  auto value = db->Materialize(*expanded);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(), 6u);
  // Only derived objects can be expanded.
  EXPECT_TRUE(
      db->ExpandAndStore(video, "nope").status().IsInvalidArgument());
}

TEST(DbTest, ComposeMultimediaObject) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "mm", 11);
  std::vector<StoredComponent> components;
  components.push_back({"c1", audio, Rational(0), std::nullopt});
  components.push_back({"c2", video, Rational(1, 2), std::nullopt});
  auto mm = db->AddMultimediaObject("presentation", components);
  ASSERT_TRUE(mm.ok());
  auto view = db->Compose(*mm);
  ASSERT_TRUE(view.ok());
  auto timeline = (*view)->object.Timeline();
  ASSERT_TRUE(timeline.ok());
  EXPECT_EQ(timeline->size(), 2u);
  EXPECT_EQ((*timeline)[1].interval.start, Rational(1, 2));
  auto duration = (*view)->object.Duration();
  ASSERT_TRUE(duration.ok());
  EXPECT_GT(duration->ToDouble(), 1.0);
  // Compose of a non-multimedia object fails.
  EXPECT_TRUE(db->Compose(video).status().IsInvalidArgument());
}

TEST(DbTest, RemoveRefusesWhileReferenced) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "rm", 12);
  (void)audio;
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 2);
  auto cut = db->AddDerivedObject("cut", "video edit", {video}, params);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(db->Remove(video).IsFailedPrecondition());
  ASSERT_TRUE(db->Remove(*cut).ok());
  // After removing the referencing object, the media object still
  // cannot go while its interpretation relationship exists — but media
  // objects reference interpretations, not vice versa, so removal works.
  EXPECT_TRUE(db->Remove(video).ok());
}

TEST(DbTest, ExpandAndStoreWithTmpegOptions) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "tm", 15);
  (void)audio;
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 12);
  auto cut = db->AddDerivedObject("cut", "video edit", {video}, params);
  ASSERT_TRUE(cut.ok());
  StoreOptions options;
  options.video_codec = "tmpeg";
  options.key_interval = 4;
  options.motion_compensation = true;
  auto stored = db->ExpandAndStore(*cut, "cut_tmpeg", options);
  ASSERT_TRUE(stored.ok()) << stored.status();
  // The stored form is interframe-coded with key metadata.
  auto stream = db->MaterializeStream(*stored);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->descriptor().type_name, "video/tmpeg");
  EXPECT_EQ(*stream->at(0).descriptor.GetString("frame kind"), "key");
  // And it decodes back to 12 frames.
  auto value = db->Materialize(*stored);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(), 12u);
}

TEST(DbTest, CollectBlobGarbageOnMemoryStore) {
  // A store without its own collector: the sweep falls back to
  // List() + Delete().
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "vac", 14);
  (void)video;
  (void)audio;
  // An orphan BLOB never registered with an interpretation.
  auto orphan = db->blob_store()->PushAll(Bytes(100, 1));
  ASSERT_TRUE(orphan.ok());
  ASSERT_EQ(db->blob_store()->List().size(), 2u);

  auto stats = db->CollectBlobGarbage();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->live, 1u);
  EXPECT_EQ(stats->swept, 1u);
  EXPECT_EQ(stats->reclaimed_bytes, 100u);
  EXPECT_FALSE(db->blob_store()->Exists(*orphan));
  // Referenced BLOB survives; media still materializes.
  EXPECT_TRUE(db->MaterializeStream(video).ok());
  // Idempotent.
  auto again = db->CollectBlobGarbage();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->swept, 0u);

  // After removing all catalog references, the sweep reclaims the BLOB.
  auto interp = db->FindByName("vac_interp");
  ASSERT_TRUE(interp.ok());
  ASSERT_TRUE(db->Remove(audio).ok());
  ASSERT_TRUE(db->Remove(video).ok());
  ASSERT_TRUE(db->Remove(*interp).ok());
  auto last = db->CollectBlobGarbage();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->live, 0u);
  EXPECT_EQ(last->swept, 1u);
  EXPECT_TRUE(db->blob_store()->List().empty());
}

TEST(DbTest, CollectBlobGarbageOnCasStore) {
  // A database over the content-addressed tier: garbage collection
  // goes through the CAS mark-and-sweep and reports full stats.
  std::string dir = ::testing::TempDir() + "/db_cas_gc_" +
                    std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  auto store = CasBlobStore::Open(dir + "/cas");
  ASSERT_TRUE(store.ok()) << store.status();
  auto db = MediaDatabase::Open(dir, std::move(*store));
  ASSERT_TRUE(db.ok()) << db.status();

  auto [video, audio] = IngestClip(db->get(), "casgc", 3);
  (void)video;
  (void)audio;
  // Orphans: one unique, one duplicating pushed content elsewhere.
  auto orphan = (*db)->blob_store()->PushAll(Bytes(5000, 42));
  ASSERT_TRUE(orphan.ok());
  ASSERT_EQ((*db)->blob_store()->List().size(), 2u);

  auto stats = (*db)->CollectBlobGarbage();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->live, 1u);
  EXPECT_EQ(stats->swept, 1u);
  EXPECT_EQ(stats->reclaimed_bytes, 5000u);
  EXPECT_FALSE((*db)->blob_store()->Exists(*orphan));
  // The interpretation's BLOB survived and media still materializes.
  auto interp = (*db)->FindByName("casgc_interp");
  ASSERT_TRUE(interp.ok());
  EXPECT_TRUE((*db)->MaterializeStream(video).ok());
  // Idempotent: nothing left to sweep.
  auto again = (*db)->CollectBlobGarbage();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->swept, 0u);
}

// ---------------------------------------------------------------------------
// Persistence

TEST(DbTest, SaveAndReopen) {
  std::string dir = ::testing::TempDir() + "/tbm_db_persist";
  std::filesystem::remove_all(dir);
  ObjectId video = 0, cut = 0, mm = 0;
  {
    auto db = MediaDatabase::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    auto [v, a] = IngestClip(db->get(), "p", 13, "French");
    video = v;
    AttrMap params;
    params.SetInt("start frame", 1);
    params.SetInt("frame count", 5);
    auto derived = (*db)->AddDerivedObject("cut", "video edit", {v}, params);
    ASSERT_TRUE(derived.ok());
    cut = *derived;
    std::vector<StoredComponent> components;
    components.push_back({"c1", a, Rational(0), std::nullopt});
    components.push_back(
        {"c2", v, Rational(1, 4), SpatialPlacement{10, 20, 1}});
    auto mm_id = (*db)->AddMultimediaObject("show", components);
    ASSERT_TRUE(mm_id.ok());
    mm = *mm_id;
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = MediaDatabase::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(*(*db)->FindByName("cut"), cut);
  // Query still works after reopen.
  auto hits = (*db)->SelectByAttr("language", AttrValue(std::string("French")));
  EXPECT_EQ(hits.size(), 1u);
  // Media materializes from the persisted BLOBs.
  auto value = (*db)->Materialize(cut);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(), 5u);
  (void)video;
  // Multimedia object round-tripped with spatial placement.
  auto entry = (*db)->Get(mm);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ((*entry)->components.size(), 2u);
  ASSERT_TRUE((*entry)->components[1].spatial.has_value());
  EXPECT_EQ((*entry)->components[1].spatial->y, 20);
  EXPECT_EQ((*entry)->components[1].start_seconds, Rational(1, 4));
}

TEST(DbTest, CatalogCorruptionDetected) {
  std::string dir = ::testing::TempDir() + "/tbm_db_corrupt";
  std::filesystem::remove_all(dir);
  {
    auto db = MediaDatabase::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->AddEntity("e", {}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Flip a byte in the catalog body.
  std::string path = MediaDatabase::CatalogPath(dir);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() - 1] ^= 0xFF;
  ASSERT_TRUE(WriteFile(path, *bytes).ok());
  EXPECT_TRUE(MediaDatabase::Open(dir).status().IsCorruption());
}

TEST(DbTest, InMemoryCannotSave) {
  auto db = MediaDatabase::CreateInMemory();
  EXPECT_TRUE(db->Checkpoint().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// last_eval_stats under concurrency

// Regression test: last_eval_stats() used to hand out a reference to a
// mutable member that concurrent Materialize calls overwrite, so a
// reader could observe a torn EvalStats (and TSan flagged the pair).
// It now returns a per-call snapshot taken under a lock. Run under
// ThreadSanitizer to verify (the TSan CI job includes DbStatsRaceTest).
TEST(DbStatsRaceTest, ConcurrentMaterializeAndStatsSnapshot) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "race", 3);
  (void)audio;
  AttrMap cut_params;
  cut_params.SetInt("start frame", 0);
  cut_params.SetInt("frame count", 8);
  auto cut = db->AddDerivedObject("race_cut", "video edit", {video},
                                  cut_params);
  ASSERT_TRUE(cut.ok());

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kIterations = 8;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, id = *cut] {
      for (int i = 0; i < kIterations; ++i) {
        auto value = db->Materialize(id);
        EXPECT_TRUE(value.ok()) << value.status();
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db] {
      for (int i = 0; i < kIterations * 4; ++i) {
        EvalStats stats = db->last_eval_stats();  // Snapshot, not a ref.
        // Exercise the copied maps so torn state would surface.
        EXPECT_GE(stats.ToString().size(), 0u);
      }
    });
  }
  for (auto& t : threads) t.join();
  EvalStats final_stats = db->last_eval_stats();
  EXPECT_EQ(final_stats.evaluations, 1u);  // Per-Materialize engine.
  EXPECT_GE(final_stats.nodes_evaluated, 1u);
}

// The catalog mutators that walk the whole catalog — building an
// attribute index, the GC mark — are serialized with inserts by the
// internal lock, as the class comment promises for every mutator.
// ThreadSanitizer verifies (the TSan CI job includes DbCatalogRaceTest).
// Entity inserts reference no blob, so the GC test does not cover a
// blob pushed before its AddInterpretation commits: the lock orders
// catalog walks, it does not pin such a blob.
constexpr int kRaceInserts = 2000;
constexpr int kRaceWalks = 200;

void InsertEntities(MediaDatabase* db) {
  for (int i = 0; i < kRaceInserts; ++i) {
    AttrMap attrs;
    attrs.SetInt("take", i % 7);
    ASSERT_TRUE(db->AddEntity("e" + std::to_string(i), attrs).ok());
  }
}

TEST(DbCatalogRaceTest, AttrIndexDuringInserts) {
  auto db = MediaDatabase::CreateInMemory();
  std::thread inserter(InsertEntities, db.get());
  for (int i = 0; i < kRaceWalks; ++i) {
    ASSERT_TRUE(db->CreateAttrIndex("take").ok());
    ASSERT_TRUE(db->DropAttrIndex("take").ok());
  }
  inserter.join();
  ASSERT_TRUE(db->CreateAttrIndex("take").ok());
  EXPECT_EQ(db->SelectByAttr("take", AttrValue(int64_t{3})).size(),
            static_cast<size_t>((kRaceInserts - 3 + 6) / 7));
}

// Plain lookups of an existing object walk the maps that an insert of
// a different object rebalances; readers take the catalog lock shared.
TEST(DbCatalogRaceTest, LookupsDuringInserts) {
  auto db = MediaDatabase::CreateInMemory();
  auto anchor = db->AddEntity("anchor", {});
  ASSERT_TRUE(anchor.ok());
  std::atomic<bool> inserted{false};
  std::thread inserter([&] {
    InsertEntities(db.get());
    inserted = true;
  });
  for (int i = 0; !inserted || i < kRaceWalks; ++i) {
    auto id = db->FindByName("anchor");
    auto entry = db->Get(*anchor);
    if (!id.ok() || !entry.ok()) {
      ADD_FAILURE() << "lookup of an existing object failed";
      break;
    }
    EXPECT_EQ(*id, *anchor);
    EXPECT_EQ((*entry)->name, "anchor");
  }
  inserter.join();
  EXPECT_EQ(db->size(), static_cast<size_t>(1 + kRaceInserts));
}

TEST(DbCatalogRaceTest, GcMarkDuringInserts) {
  auto db = MediaDatabase::CreateInMemory();
  auto [video, audio] = IngestClip(db.get(), "gc", 5);
  (void)audio;
  std::thread inserter(InsertEntities, db.get());
  for (int i = 0; i < kRaceWalks; ++i) {
    auto stats = db->CollectBlobGarbage();
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->live, 1u);
    EXPECT_EQ(stats->swept, 0u);
  }
  inserter.join();
  EXPECT_EQ(db->size(), static_cast<size_t>(3 + kRaceInserts));
  EXPECT_TRUE(db->MaterializeStream(video).ok());
}

}  // namespace
}  // namespace tbm
