#ifndef TBM_DB_WAL_WAL_H_
#define TBM_DB_WAL_WAL_H_

/// The catalog's write-ahead log (DESIGN.md §16).
///
/// Every mutating MediaDatabase call appends one checksummed,
/// length-prefixed, monotonically-sequenced record here and waits for
/// it to be fsynced before acknowledging. Concurrent writers are
/// batched under a single fsync (group commit: the first waiter
/// becomes the leader, writes everything buffered, and wakes the
/// rest). A checkpoint serializes the whole catalog to a temp file,
/// fsyncs, atomically renames it over `catalog.tbm`, publishes the
/// checkpoint LSN in the superblock, and deletes the WAL segments the
/// snapshot made redundant. Recovery on open verifies the superblock
/// and snapshot, replays records past the snapshot's LSN, and stops
/// cleanly at a torn or corrupt tail.
///
/// On-disk layout inside a database directory:
///   super.tbm            superblock (checkpoint LSN, snapshot CRC)
///   catalog.tbm          snapshot (self-checksummed, carries its LSN)
///   wal-<16 hex>.tbm     log segments, named by their first LSN
///   LOCK                 flock'd single-writer guard
///
/// Segment format: header {u32 magic, u32 version, u64 start_lsn},
/// then records {u32 payload_len, u32 crc32(lsn || payload), u64 lsn,
/// payload}. The payload is opaque to this layer — the database
/// encodes its transaction ops into it.
///
/// Crash discipline: a WalManager that hits an I/O error or an armed
/// CrashPoint freezes — un-synced buffers are discarded and every
/// further operation fails with the sticky status, modeling a killed
/// process. The caller reopens the directory to recover.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/durable.h"
#include "base/result.h"
#include "base/status.h"
#include "db/wal/crash_point.h"
#include "db/wal/superblock.h"
#include "obs/flight.h"

namespace tbm::wal {

/// Durability of an acknowledged commit.
enum class SyncMode : uint8_t {
  kSync = 0,    ///< fsync before acknowledging (the default).
  kNoSync = 1,  ///< write() only — a crash may lose acked commits.
                ///< Bench knob for measuring the cost of the fsync.
};

struct WalOptions {
  SyncMode sync = SyncMode::kSync;

  /// When the live WAL grows past this many bytes, the database takes
  /// a checkpoint after the commit that crossed the line. 0 disables
  /// automatic checkpointing (manual Checkpoint() only).
  uint64_t checkpoint_threshold_bytes = 4ull << 20;

  /// Borrowed crash-point schedule for fault-injection tests; null in
  /// production. See db/wal/crash_point.h.
  CrashSchedule* crash = nullptr;
};

/// What recovery-on-open found and did.
struct RecoveryStats {
  uint64_t snapshot_lsn = 0;     ///< Applied LSN of the loaded snapshot.
  uint64_t replayed = 0;         ///< WAL records applied past the snapshot.
  uint64_t skipped = 0;          ///< Records at or below the snapshot LSN.
  uint64_t discarded_bytes = 0;  ///< Torn/corrupt tail bytes dropped.
  bool torn_tail = false;        ///< A torn or corrupt record ended the scan.
  uint64_t recovery_us = 0;      ///< Wall time of open-with-recovery.
};

/// Point-in-time durability status (tbmctl `db status`).
struct WalStatus {
  bool enabled = false;
  uint64_t last_lsn = 0;          ///< Last assigned sequence number.
  uint64_t durable_lsn = 0;       ///< Highest fsynced sequence number.
  uint64_t checkpoint_lsn = 0;    ///< Superblock's checkpoint LSN.
  uint64_t checkpoint_count = 0;  ///< Checkpoints over the db's life.
  uint64_t segments = 0;          ///< Live WAL segment files.
  uint64_t wal_bytes = 0;         ///< Bytes across those segments.
};

/// One recovered record, handed back to the database for replay.
struct WalRecord {
  uint64_t lsn = 0;
  Bytes payload;
};

class WalManager {
 public:
  /// Opens the durability state of a database directory: loads the
  /// superblock (if any), scans every WAL segment in LSN order
  /// verifying checksums and sequence continuity, stops cleanly at a
  /// torn tail, and positions the appender after the last valid
  /// record. The scanned records are available via
  /// `recovered_records()` until `FinishRecovery` is called.
  static Result<std::unique_ptr<WalManager>> Open(const std::string& dir,
                                                  WalOptions options);

  ~WalManager();
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  // -------------------------------------------------------------------------
  // Recovery handshake (between Open and FinishRecovery)

  const std::vector<WalRecord>& recovered_records() const {
    return recovered_;
  }
  bool has_superblock() const { return has_superblock_; }
  const Superblock& superblock() const { return superblock_; }

  /// Ends recovery: records stats, drops the record buffer, and emits
  /// the flight-recorder event. `snapshot_lsn` is the applied LSN of
  /// the snapshot the caller loaded; replayed/skipped are the caller's
  /// replay counts.
  void FinishRecovery(uint64_t snapshot_lsn, uint64_t replayed,
                      uint64_t skipped);

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // -------------------------------------------------------------------------
  // Commit path

  /// Assigns the next LSN and buffers one record. Callers serialize
  /// Append with the same lock that orders their in-memory apply, so
  /// LSN order equals apply order. Durable only after WaitDurable.
  Result<uint64_t> Append(ByteSpan payload);

  /// Blocks until every record up to `lsn` is durable. Group commit:
  /// the first waiter writes and fsyncs everything buffered; later
  /// waiters ride along on that one fsync.
  Status WaitDurable(uint64_t lsn);

  // -------------------------------------------------------------------------
  // Checkpoint protocol (driven by the database; see DESIGN.md §16)

  /// Step 1, called under the caller's catalog lock: flushes and
  /// fsyncs everything buffered, closes the live segment, and opens a
  /// fresh one for subsequent commits. Returns the LSN the snapshot
  /// must cover (the last assigned).
  Result<uint64_t> RotateForCheckpoint();

  /// Step 2, called with no locks held: publishes `snapshot` at
  /// `snapshot_path` (temp + fsync + rename + dir fsync), publishes
  /// the superblock with `checkpoint_lsn`, then deletes the WAL
  /// segments the snapshot superseded.
  Status InstallCheckpoint(const std::string& snapshot_path,
                           ByteSpan snapshot, uint64_t checkpoint_lsn);

  // -------------------------------------------------------------------------
  // Introspection

  WalStatus GetStatus() const;
  uint64_t last_lsn() const;
  /// Highest fsynced LSN. It never advances once the manager froze, so
  /// every record past it failed.
  uint64_t durable_lsn() const;
  uint64_t bytes_since_checkpoint() const;
  const WalOptions& options() const { return options_; }

  /// True once the manager froze (I/O error or injected crash); every
  /// operation fails with the sticky status from then on.
  bool frozen() const;

  /// Segment path for a starting LSN (16 hex digits).
  static std::string SegmentPath(const std::string& dir, uint64_t start_lsn);

 private:
  WalManager(std::string dir, WalOptions options);

  Status ScanSegments();
  /// Becomes the writer: appends `batch` to the live segment (creating
  /// it when absent) and fsyncs per the sync mode. Called with mu_
  /// HELD; unlocks for the I/O and relocks before returning.
  Status WriteBatchLocked(std::unique_lock<std::mutex>& lk, Bytes batch,
                          uint64_t batch_last_lsn, uint64_t batch_records);
  Status EnsureLiveSegmentLocked();
  bool CrashHereLocked(const char* point);
  void FreezeLocked(const char* why);

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool frozen_ = false;
  Status sticky_;                ///< The error every op returns once frozen.
  Bytes pending_;                ///< Encoded records awaiting the next sync.
  uint64_t pending_records_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t last_buffered_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  bool sync_in_progress_ = false;

  struct Segment {
    uint64_t start_lsn = 0;
    std::string path;
    uint64_t bytes = 0;
  };
  std::vector<Segment> segments_;  ///< Sorted by start LSN; live at back.
  std::unique_ptr<AppendOnlyFile> live_;  ///< Null until first write.
  uint64_t live_start_lsn_ = 1;    ///< Start LSN of the (next) live segment.

  bool has_superblock_ = false;
  Superblock superblock_;

  std::vector<WalRecord> recovered_;
  RecoveryStats recovery_stats_;
  int64_t open_epoch_us_ = 0;

  obs::FlightRecorder flight_;
};

}  // namespace tbm::wal

#endif  // TBM_DB_WAL_WAL_H_
