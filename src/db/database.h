#ifndef TBM_DB_DATABASE_H_
#define TBM_DB_DATABASE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/thread_pool.h"
#include "blob/blob_store.h"
#include "compose/multimedia.h"
#include "db/codec_bridge.h"
#include "db/rights.h"
#include "db/wal/wal.h"
#include "derive/graph.h"
#include "derive/scheduler.h"
#include "interp/interpretation.h"
#include "interp/streaming.h"

namespace tbm {

/// Catalog object identifier (1-based; 0 is invalid).
using ObjectId = uint64_t;
inline constexpr ObjectId kInvalidObjectId = 0;

/// What a catalog entry is.
enum class CatalogKind : uint8_t {
  kEntity = 0,            ///< Domain object (e.g. a VideoClip record).
  kInterpretation = 1,    ///< A BLOB's permanently associated interpretation.
  kMediaObject = 2,       ///< Non-derived media object (within an
                          ///< interpretation).
  kDerivedObject = 3,     ///< Derivation object (op + inputs + params).
  kMultimediaObject = 4,  ///< Composition of components.
};

std::string_view CatalogKindToString(CatalogKind kind);

/// A component record of a stored multimedia object.
struct StoredComponent {
  std::string name;  ///< Relationship name, e.g. "c1".
  ObjectId media = kInvalidObjectId;
  Rational start_seconds;
  std::optional<SpatialPlacement> spatial;
};

/// One row of the catalog. Only the fields for its `kind` are
/// meaningful.
struct CatalogEntry {
  ObjectId id = kInvalidObjectId;
  CatalogKind kind = CatalogKind::kEntity;
  std::string name;  ///< Unique across the catalog.
  AttrMap attrs;     ///< Domain attributes (title, director, language...).

  // kInterpretation:
  Interpretation interpretation;
  // kMediaObject:
  ObjectId interpretation_ref = kInvalidObjectId;
  std::string stream_name;  ///< Object name inside the interpretation.
  // kDerivedObject:
  std::string op;
  std::vector<ObjectId> inputs;
  AttrMap params;
  // kMultimediaObject:
  std::vector<StoredComponent> components;
};

/// A materialized multimedia object together with the derivation graph
/// its components evaluate in. Keep the view alive while using the
/// object.
struct ComposedView {
  ComposedView() : graph(), object("", &graph) {}
  DerivationGraph graph;
  MultimediaObject object;
};

/// The multimedia database: BLOB storage plus a catalog of
/// interpretations, media objects (derived and non-derived),
/// multimedia objects and domain entities — the full Figure 5 stack
/// behind one API.
///
/// A database opened with `Open(dir)` is durable and transactional
/// (DESIGN.md §16): every catalog mutation is appended to a
/// write-ahead log and fsynced before the call returns, so an
/// acknowledged mutation survives a crash with no explicit flush.
/// Concurrent writers share one fsync (group commit). A checkpoint —
/// taken automatically when the log grows past
/// `WalOptions::checkpoint_threshold_bytes`, or explicitly via
/// Checkpoint() — folds the log into the snapshot
/// (`catalog.tbm`, atomically replaced) and truncates it. Opening the
/// directory replays any log records past the snapshot, stopping
/// cleanly at a torn tail. A `LOCK` file makes the directory
/// single-writer: a second Open fails with FailedPrecondition.
///
/// A mutator that returns an error leaves no visible change in this
/// handle: every mutation is applied in memory as soon as it is
/// logged, and a commit whose log record fails to become durable is
/// undone before the call returns. Failed commits are undone newest
/// first, so the contract holds when several concurrent commits fail
/// together. After a WAL I/O error the handle is frozen (every further
/// mutation fails with the same status) and should be reopened; a
/// failed commit whose record had in fact reached disk before the
/// error (durable but unacknowledged) is replayed by that reopen, so
/// it may legitimately reappear — the same ambiguity as any client
/// whose commit request times out.
///
/// `CreateInMemory()` keeps everything in RAM for tests and scratch
/// work; it has no log and Checkpoint() fails.
///
/// Thread model: mutators are serialized by an internal lock and may
/// run concurrently with each other and with readers. Readers take the
/// same lock shared, so a lookup never sees a map a writer is
/// rebalancing. Entry pointers from Get() are copy-on-write: valid
/// until the next mutation of that object, so the caller must not hold
/// one across a mutation of that same object.
class MediaDatabase {
 public:
  /// Opens (creating if needed) a file-backed database. Convenience
  /// for `Open(dir, FileBlobStore::Open(dir))`.
  static Result<std::unique_ptr<MediaDatabase>> Open(const std::string& dir);

  /// Opens a database over an injected BLOB store — the store is the
  /// composition point: wrap a FileBlobStore in a FaultInjectingStore
  /// for robustness testing, or substitute a CasBlobStore, without
  /// the database knowing. The catalog still persists in `dir`.
  static Result<std::unique_ptr<MediaDatabase>> Open(
      const std::string& dir, std::unique_ptr<BlobStore> store);

  /// Full-control open: WAL sync mode, checkpoint threshold, and the
  /// crash-injection schedule (tests) come from `options`.
  static Result<std::unique_ptr<MediaDatabase>> Open(
      const std::string& dir, std::unique_ptr<BlobStore> store,
      wal::WalOptions options);

  /// Creates a volatile in-memory database. Convenience for
  /// `CreateWithStore(std::make_unique<MemoryBlobStore>())`.
  static std::unique_ptr<MediaDatabase> CreateInMemory();

  /// Creates a database over an injected store with no catalog
  /// persistence: the catalog lives in RAM and Checkpoint() fails with
  /// FailedPrecondition.
  static std::unique_ptr<MediaDatabase> CreateWithStore(
      std::unique_ptr<BlobStore> store);

  BlobStore* blob_store() { return store_.get(); }
  const BlobStore* blob_store() const { return store_.get(); }

  // -------------------------------------------------------------------------
  // Catalog writes (each is one durable transaction on file-backed
  // databases: logged, fsynced, then acknowledged)

  /// Adds a domain entity (a VideoClip-style record). Media-valued
  /// attributes are references to media objects: use SetMediaAttr.
  Result<ObjectId> AddEntity(const std::string& name, AttrMap attrs);

  /// Registers a BLOB's interpretation (the BLOB must exist in this
  /// database's store).
  Result<ObjectId> AddInterpretation(const std::string& name,
                                     Interpretation interpretation);

  /// Registers the non-derived media object `stream_name` exposed by
  /// interpretation `interpretation_id`.
  Result<ObjectId> AddMediaObject(const std::string& name,
                                  ObjectId interpretation_id,
                                  const std::string& stream_name,
                                  AttrMap attrs = {});

  /// Registers a derivation object: op applied to catalog inputs with
  /// parameters. Inputs may be media objects or other derived objects.
  Result<ObjectId> AddDerivedObject(const std::string& name,
                                    const std::string& op,
                                    std::vector<ObjectId> inputs,
                                    AttrMap params, AttrMap attrs = {});

  /// Registers a multimedia object from components.
  Result<ObjectId> AddMultimediaObject(const std::string& name,
                                       std::vector<StoredComponent> components,
                                       AttrMap attrs = {});

  Status SetAttr(ObjectId id, const std::string& name, AttrValue value);

  /// Stores a media-valued attribute: a named reference from an entity
  /// to a media object (the paper's VideoClip with a video-valued
  /// attribute).
  Status SetMediaAttr(ObjectId entity, const std::string& attr,
                      ObjectId media_object);
  Result<ObjectId> GetMediaAttr(ObjectId entity,
                                const std::string& attr) const;

  /// Replaces the parameters of a derived object (e.g. re-tuning a
  /// scale factor); the derivation op and inputs are immutable.
  Status UpdateDerivedParams(ObjectId id, AttrMap params);

  Status Remove(ObjectId id);

  /// Outcome of CollectBlobGarbage().
  struct BlobGcStats {
    uint64_t live = 0;             ///< Blobs referenced by interpretations.
    uint64_t swept = 0;            ///< Blobs reclaimed.
    uint64_t reclaimed_bytes = 0;  ///< Stored bytes reclaimed (0 when the
                                   ///< store does not track it).
    uint64_t pinned = 0;           ///< Condemned blobs rescued by racing
                                   ///< pushes (content-addressed store only).
    uint64_t pause_us = 0;         ///< Mutator-excluding pause (CAS only).
  };

  /// Full mark-and-sweep BLOB collection: marks every blob a live
  /// interpretation places into, then sweeps the rest (e.g. after
  /// Remove()ing an interpretation, or BLOBs captured but never
  /// registered). Over a
  /// CasBlobStore this runs the store's concurrent-safe Sweep (racing
  /// pushes pin their hash); over any other store it falls back to
  /// List() + Delete().
  Result<BlobGcStats> CollectBlobGarbage();

  // -------------------------------------------------------------------------
  // Catalog reads & queries

  Result<const CatalogEntry*> Get(ObjectId id) const;
  Result<ObjectId> FindByName(const std::string& name) const;
  size_t size() const;
  std::vector<ObjectId> List() const;

  /// All entries passing `predicate`. The predicate runs without the
  /// catalog lock held, so it may call the other readers.
  std::vector<ObjectId> Filter(
      const std::function<bool(const CatalogEntry&)>& predicate) const;

  /// Entries whose attribute `attr` equals `value`. Uses a secondary
  /// index when one exists (CreateAttrIndex), otherwise scans.
  std::vector<ObjectId> SelectByAttr(const std::string& attr,
                                     const AttrValue& value) const;

  /// Builds (or rebuilds) a secondary index over attribute `attr`,
  /// maintained incrementally by SetAttr and catalog inserts/removals.
  /// Indexes are in-memory query accelerators; they are rebuilt on
  /// open, not persisted.
  Status CreateAttrIndex(const std::string& attr);

  /// Drops the index on `attr`.
  Status DropAttrIndex(const std::string& attr);

  bool HasAttrIndex(const std::string& attr) const;

  /// Media objects (derived or not) of the given media kind.
  std::vector<ObjectId> SelectByKind(MediaKind kind) const;

  /// Non-derived media objects whose *media descriptor* attribute
  /// `attr` satisfies `predicate` — querying the structural metadata
  /// interpretation provides (e.g. all video with frame height >= 480).
  std::vector<ObjectId> SelectByDescriptor(
      const std::string& attr,
      const std::function<bool(const AttrValue&)>& predicate) const;

  /// Non-derived media objects whose stream span lasts at least
  /// `min_seconds` and at most `max_seconds`.
  std::vector<ObjectId> SelectByDuration(double min_seconds,
                                         double max_seconds) const;

  // -------------------------------------------------------------------------
  // Materialization (the Figure 5 upward path)

  /// Materializes a non-derived media object as a timed stream through
  /// an ElementStream (MaterializeStreamed): chunked reads of the
  /// object's own chunk range with asynchronous readahead, per the
  /// read options.
  Result<TimedStream> MaterializeStream(ObjectId media_object) const;

  /// Read options of MaterializeStream and Materialize; the defaults
  /// are `StreamReadOptions{}`. If `options.pool` is null and
  /// `options.prefetch_depth` > 0, the database lazily creates (and
  /// owns) an I/O pool for the readahead; a depth of 0 reads chunks
  /// synchronously.
  void set_read_options(StreamReadOptions options);

  /// Materializes only the elements intersecting `span` — the paper's
  /// "select a specific duration" query.
  Result<TimedStream> MaterializeStreamSpan(ObjectId media_object,
                                            TickSpan span) const;

  /// Materializes a media or derived object as its typed value,
  /// expanding derivations as needed (memoized per call graph). The
  /// expansion runs through a DerivationEngine configured by
  /// `eval_options()`; counters land in `last_eval_stats()`.
  Result<MediaValue> Materialize(ObjectId id) const;

  /// Evaluation knobs (threads, cache budget) used by Materialize and
  /// MaterializeFor.
  void set_eval_options(EvalOptions options) { eval_options_ = options; }
  const EvalOptions& eval_options() const { return eval_options_; }

  /// Engine counters of the most recent Materialize call. Returns a
  /// snapshot by value: Materialize may run concurrently from other
  /// threads and overwrite the stored stats at any time, so handing out
  /// a reference would race with that writer.
  EvalStats last_eval_stats() const {
    std::lock_guard<std::mutex> lock(eval_stats_mu_);
    return last_eval_stats_;
  }

  /// Builds an evaluable view of a multimedia object: a derivation
  /// graph holding all transitive components plus the composed object.
  Result<std::unique_ptr<ComposedView>> Compose(ObjectId multimedia_id) const;

  /// Serialized size of the derivation records reachable from a
  /// derived object (op, refs, params) — the storage cost of keeping it
  /// implicit.
  Result<uint64_t> DerivationRecordBytes(ObjectId id) const;

  /// Expands a derived object and stores the result as a new
  /// non-derived media object (new BLOB + interpretation + media
  /// object entry named `new_name`). Returns the media object id —
  /// the paper's "expand derived objects to produce actual objects".
  Result<ObjectId> ExpandAndStore(ObjectId derived_id,
                                  const std::string& new_name,
                                  const StoreOptions& options = {});

  // -------------------------------------------------------------------------
  // Authorization (paper §6 future work)

  /// A copy of the rights records for catalog objects; persisted with
  /// the catalog. Every change goes through the logged mutators below.
  RightsManager rights() const;

  /// The only rights mutators: RightsManager::Protect/Grant/Revoke
  /// applied under the catalog lock and written to the WAL, so the
  /// change is durable when the call returns.
  Status ProtectObject(ObjectId object, const std::string& owner,
                       const std::string& copyright_notice = "");
  Status GrantRights(ObjectId object, const std::string& principal,
                     OperationMask operations);
  Status RevokeRights(ObjectId object, const std::string& principal);

  /// Materialize with access control: checks kRead on the object and
  /// every transitive derivation input for `principal`.
  Result<MediaValue> MaterializeFor(ObjectId id,
                                    const std::string& principal) const;

  /// AddDerivedObject with access control: checks kDerive on every
  /// input; if any input carries a copyright notice, the derived
  /// object's "copyright" attribute cites them (electronic copyright
  /// propagation).
  Result<ObjectId> AddDerivedObjectFor(const std::string& principal,
                                       const std::string& name,
                                       const std::string& op,
                                       std::vector<ObjectId> inputs,
                                       AttrMap params, AttrMap attrs = {});

  // -------------------------------------------------------------------------
  // Durability

  /// Takes a checkpoint now: serializes the catalog (copy-on-write —
  /// concurrent readers and writers keep working during the
  /// serialization), publishes it atomically over `catalog.tbm`,
  /// records the checkpoint LSN in the superblock, and truncates the
  /// WAL. FailedPrecondition on in-memory databases.
  Status Checkpoint() const;

  /// Durability counters: LSNs, segment count, log size. `enabled` is
  /// false for in-memory databases.
  wal::WalStatus wal_status() const;

  /// What recovery did when this database was opened (zeros for
  /// in-memory databases and clean non-replaying opens).
  wal::RecoveryStats recovery_stats() const;

  /// Path of the catalog snapshot for a database directory.
  static std::string CatalogPath(const std::string& dir);

  /// Path of the single-writer lock file for a database directory.
  static std::string LockPath(const std::string& dir);

 private:
  MediaDatabase(std::unique_ptr<BlobStore> store, std::string dir)
      : store_(std::move(store)), dir_(std::move(dir)) {}

  Result<ObjectId> Insert(CatalogEntry entry);
  Status CheckNameFreeLocked(const std::string& name) const;
  Result<NodeId> BuildGraphNode(ObjectId id, DerivationGraph* graph,
                                std::map<ObjectId, NodeId>* built) const;

  /// Loads the snapshot (verifying it against the superblock when one
  /// exists) and returns its applied LSN — 0 for fresh directories and
  /// pre-WAL snapshots.
  Result<uint64_t> LoadCatalog();
  /// Replays WAL records past the snapshot and reports to the WAL.
  Status Recover();
  Status ApplyWalRecord(const wal::WalRecord& record);

  /// One catalog mutation: exactly the record the WAL logs (a payload is
  /// {u8 kind, kind-specific body}), and the unit the undo log keeps.
  struct CatalogOp {
    enum Kind : uint8_t { kUpsert = 1, kRemove = 2, kRights = 3 };
    CatalogOp(Kind kind, std::shared_ptr<const CatalogEntry> entry,
              ObjectId id = kInvalidObjectId)
        : kind(kind), entry(std::move(entry)), id(id) {}

    Kind kind;
    std::shared_ptr<const CatalogEntry> entry;  ///< kUpsert: the new row.
    ObjectId id;                                ///< kRemove: the row to drop.
    RightsManager rights;                       ///< kRights: the whole table.
  };

  /// The one write path. Called with `lock` held exclusively: logs `op`,
  /// applies it, and queues its inverse on the undo log; then waits for
  /// durability with the lock released and relocks. On failure every
  /// commit the WAL did not make durable is undone, newest first.
  Status CommitLocked(std::unique_lock<std::shared_mutex>& lock, CatalogOp op);
  /// In-memory apply, shared by commits, undo and replay. Returns the
  /// op that undoes it.
  CatalogOp ApplyLocked(CatalogOp op);
  /// Copies the rights table, applies `mutate` and commits the result.
  Status CommitRightsChange(const std::function<Status(RightsManager&)>& mutate);
  void MaybeAutoCheckpoint() const;
  Status CheckpointLocked() const;

  /// Serializes a full snapshot file image (magic, version, checksum,
  /// body) from copied state.
  static Bytes SerializeSnapshot(
      uint64_t applied_lsn, uint64_t next_id,
      const std::map<ObjectId, std::shared_ptr<const CatalogEntry>>& catalog,
      const RightsManager& rights);

  Status CheckReadRecursive(ObjectId id, const std::string& principal) const;
  void IndexInsert(const CatalogEntry& entry);
  void IndexRemove(const CatalogEntry& entry);
  static std::string IndexKey(const AttrValue& value);

  /// Read options with the pool slot filled (lazily creating the owned
  /// I/O pool on first use).
  StreamReadOptions ResolvedReadOptions() const;

  std::unique_ptr<BlobStore> store_;
  std::string dir_;  ///< Empty for in-memory databases.

  /// Held exclusively by mutators, shared by readers and by the
  /// checkpoint's state copy.
  mutable std::shared_mutex catalog_mu_;
  /// Serializes whole checkpoints (rotate + serialize + install).
  /// Ordering: checkpoint_mu_ before catalog_mu_.
  mutable std::mutex checkpoint_mu_;

  /// Copy-on-write rows: mutators replace the shared_ptr, so a
  /// checkpoint's copied map keeps serializing the consistent old
  /// state while writers proceed.
  std::map<ObjectId, std::shared_ptr<const CatalogEntry>> catalog_;
  std::map<std::string, ObjectId> by_name_;
  /// attr name -> (canonical value key -> ids).
  std::map<std::string, std::multimap<std::string, ObjectId>> attr_indexes_;
  RightsManager rights_;
  ObjectId next_id_ = 1;
  /// Inverses of applied commits not yet known durable, in LSN order.
  struct UndoEntry {
    uint64_t lsn;
    CatalogOp inverse;
  };
  std::deque<UndoEntry> undo_;
  EvalOptions eval_options_;
  mutable std::mutex eval_stats_mu_;  ///< Guards last_eval_stats_.
  mutable EvalStats last_eval_stats_;

  std::unique_ptr<FileLock> lock_;        ///< Null for in-memory.
  std::unique_ptr<wal::WalManager> wal_;  ///< Null for in-memory.

  StreamReadOptions read_options_;
  mutable std::mutex io_pool_mu_;  ///< Guards io_pool_ creation.
  mutable std::unique_ptr<ThreadPool> io_pool_;
};

}  // namespace tbm

#endif  // TBM_DB_DATABASE_H_
