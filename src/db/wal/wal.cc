#include "db/wal/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "base/crc32.h"
#include "base/io.h"
#include "base/macros.h"
#include "obs/metrics.h"

namespace tbm::wal {

namespace {

constexpr uint32_t kSegmentMagic = 0x5442'574Cu;  // "TBWL".
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;  // magic + version + start LSN.
constexpr size_t kRecordHeaderBytes = 16;   // len + crc + LSN.
/// Sanity bound on one record's payload — anything larger is treated
/// as corruption, not an allocation request.
constexpr uint64_t kMaxPayloadBytes = 1ull << 30;

struct WalMetrics {
  obs::Counter* records;
  obs::Counter* appended_bytes;
  obs::Counter* fsyncs;
  obs::Counter* checkpoints;
  obs::Counter* replayed;
  obs::Counter* discarded_bytes;
  obs::Histogram* fsync_us;
  obs::Histogram* group_records;
  obs::Histogram* checkpoint_us;
  obs::Histogram* recovery_us;

  static WalMetrics& Get() {
    static WalMetrics m = [] {
      auto& r = obs::Registry::Global();
      return WalMetrics{r.counter("wal.records"),
                        r.counter("wal.appended_bytes"),
                        r.counter("wal.fsyncs"),
                        r.counter("wal.checkpoints"),
                        r.counter("wal.replayed_records"),
                        r.counter("wal.discarded_bytes"),
                        r.histogram("wal.fsync_us"),
                        r.histogram("wal.group_records"),
                        r.histogram("wal.checkpoint_us"),
                        r.histogram("wal.recovery_us")};
    }();
    return m;
  }
};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EncodeRecord(uint64_t lsn, ByteSpan payload, Bytes* out) {
  BinaryWriter header;
  header.WriteU32(static_cast<uint32_t>(payload.size()));
  // The checksum covers the LSN and the payload so a record can never
  // be replayed under the wrong sequence number.
  BinaryWriter checked;
  checked.WriteU64(lsn);
  checked.WriteRaw(payload);
  header.WriteU32(Crc32(checked.buffer()));
  out->insert(out->end(), header.buffer().begin(), header.buffer().end());
  out->insert(out->end(), checked.buffer().begin(), checked.buffer().end());
}

}  // namespace

std::string WalManager::SegmentPath(const std::string& dir,
                                    uint64_t start_lsn) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.tbm",
                static_cast<unsigned long long>(start_lsn));
  return dir + "/" + name;
}

WalManager::WalManager(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options), open_epoch_us_(NowMicros()) {
  flight_.set_label("wal " + dir_);
}

WalManager::~WalManager() = default;

Result<std::unique_ptr<WalManager>> WalManager::Open(const std::string& dir,
                                                     WalOptions options) {
  auto wal = std::unique_ptr<WalManager>(new WalManager(dir, options));
  auto super = LoadSuperblock(dir);
  if (super.ok()) {
    wal->has_superblock_ = true;
    wal->superblock_ = *super;
  } else if (!super.status().IsNotFound()) {
    return super.status();  // Corrupt or unreadable superblock is fatal.
  }
  TBM_RETURN_IF_ERROR(wal->ScanSegments());
  return wal;
}

Status WalManager::ScanSegments() {
  namespace fs = std::filesystem;
  // Collect wal-<16 hex>.tbm files, ordered by their start LSN.
  std::vector<Segment> found;
  std::vector<std::string> stale_ckpts;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      // Temp snapshot of a checkpoint that crashed before its rename;
      // never authoritative (the commit point is the superblock).
      stale_ckpts.push_back(entry.path().string());
      continue;
    }
    if (name.size() != 24 || name.rfind("wal-", 0) != 0 ||
        name.substr(20) != ".tbm") {
      continue;
    }
    uint64_t start = 0;
    bool hex = true;
    for (char c : name.substr(4, 16)) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else { hex = false; break; }
      start = (start << 4) | static_cast<uint64_t>(digit);
    }
    if (!hex) continue;
    found.push_back({start, entry.path().string(), 0});
  }
  for (const std::string& path : stale_ckpts) std::remove(path.c_str());
  std::sort(found.begin(), found.end(),
            [](const Segment& a, const Segment& b) {
              return a.start_lsn < b.start_lsn;
            });

  uint64_t expected_lsn = 0;  // 0 = accept the first segment's start.
  bool stop_all = false;
  for (Segment& segment : found) {
    if (stop_all) {
      // A sequence gap upstream means nothing later can be trusted;
      // drop the stranded segment so its name can never collide with a
      // future live segment.
      std::error_code size_ec;
      uint64_t size = fs::file_size(segment.path, size_ec);
      if (!size_ec) recovery_stats_.discarded_bytes += size;
      std::remove(segment.path.c_str());
      continue;
    }
    TBM_ASSIGN_OR_RETURN(Bytes bytes, ReadFileBytes(segment.path));
    segment.bytes = bytes.size();
    BinaryReader reader(bytes);
    if (bytes.size() < kSegmentHeaderBytes) {
      // Crash between segment creation and its header write: no record
      // ever made it in. Unlink so the name is free for reuse.
      recovery_stats_.discarded_bytes += bytes.size();
      recovery_stats_.torn_tail = true;
      std::remove(segment.path.c_str());
      continue;
    }
    TBM_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
    TBM_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
    TBM_ASSIGN_OR_RETURN(uint64_t start_lsn, reader.ReadU64());
    if (magic != kSegmentMagic || version == 0 ||
        version > kSegmentVersion || start_lsn != segment.start_lsn) {
      return Status::Corruption("bad WAL segment header: " + segment.path);
    }
    if (expected_lsn != 0 && start_lsn > expected_lsn) {
      // Gap in the sequence: a whole segment vanished. Records beyond
      // the gap cannot be applied without it.
      recovery_stats_.discarded_bytes +=
          bytes.size() - kSegmentHeaderBytes;
      recovery_stats_.torn_tail = true;
      stop_all = true;
      std::remove(segment.path.c_str());
      continue;
    }
    uint64_t lsn_cursor = start_lsn;
    size_t tear_at = bytes.size();  // First torn byte; == size when clean.
    while (!reader.AtEnd()) {
      size_t record_start = reader.position();
      if (reader.remaining() < kRecordHeaderBytes) {
        tear_at = record_start;
        break;
      }
      uint32_t len = *reader.ReadU32();
      uint32_t crc = *reader.ReadU32();
      uint64_t lsn = *reader.ReadU64();
      if (len > kMaxPayloadBytes || reader.remaining() < len ||
          lsn != lsn_cursor) {
        tear_at = record_start;
        break;
      }
      BinaryWriter checked;
      checked.WriteU64(lsn);
      checked.WriteRaw(ByteSpan(bytes.data() + reader.position(), len));
      if (Crc32(checked.buffer()) != crc) {
        tear_at = record_start;
        break;
      }
      WalRecord record;
      record.lsn = lsn;
      record.payload = *reader.ReadRaw(len);
      if (expected_lsn == 0 || lsn >= expected_lsn) {
        recovered_.push_back(std::move(record));
      }
      lsn_cursor = lsn + 1;
    }
    if (tear_at < bytes.size()) {
      // Physically discard the torn tail so the segment only ever
      // contains valid records and new appends cannot land after
      // garbage.
      recovery_stats_.discarded_bytes += bytes.size() - tear_at;
      recovery_stats_.torn_tail = true;
      TBM_RETURN_IF_ERROR(TruncateFile(segment.path, tear_at));
      segment.bytes = tear_at;
    }
    // max(): a segment that overlaps its predecessor but holds fewer
    // records must not move the cursor backwards — that would
    // misclassify the next legitimate segment as a sequence gap and
    // delete its valid records.
    expected_lsn = std::max(expected_lsn, lsn_cursor);
    segments_.push_back(segment);
  }

  uint64_t last = recovered_.empty() ? superblock_.checkpoint_lsn
                                     : recovered_.back().lsn;
  last = std::max(last, superblock_.checkpoint_lsn);
  next_lsn_ = last + 1;
  durable_lsn_ = last;
  // New records go to a fresh segment; torn bytes in old segments are
  // skipped by every future scan and reclaimed at the next checkpoint.
  live_start_lsn_ = next_lsn_;
  return Status::OK();
}

void WalManager::FinishRecovery(uint64_t snapshot_lsn, uint64_t replayed,
                                uint64_t skipped) {
  recovery_stats_.snapshot_lsn = snapshot_lsn;
  recovery_stats_.replayed = replayed;
  recovery_stats_.skipped = skipped;
  recovery_stats_.recovery_us =
      static_cast<uint64_t>(NowMicros() - open_epoch_us_);
  recovered_.clear();
  recovered_.shrink_to_fit();
  auto& m = WalMetrics::Get();
  m.replayed->Add(replayed);
  m.discarded_bytes->Add(recovery_stats_.discarded_bytes);
  m.recovery_us->Record(recovery_stats_.recovery_us);
  flight_.Record(obs::FlightEventType::kRecovery, "open", replayed,
                 recovery_stats_.discarded_bytes);
}

// ---------------------------------------------------------------------------
// Commit path

bool WalManager::CrashHereLocked(const char* point) {
  if (options_.crash != nullptr && options_.crash->ShouldCrash(point)) {
    FreezeLocked(point);
    return true;
  }
  return false;
}

void WalManager::FreezeLocked(const char* why) {
  frozen_ = true;
  sticky_ = Status::IOError(std::string("wal frozen (crashed at ") + why +
                            "); reopen the database to recover");
  pending_.clear();
  pending_records_ = 0;
  flight_.Record(obs::FlightEventType::kNote, "frozen");
  cv_.notify_all();
}

Result<uint64_t> WalManager::Append(ByteSpan payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_) return sticky_;
  uint64_t lsn = next_lsn_++;
  EncodeRecord(lsn, payload, &pending_);
  ++pending_records_;
  last_buffered_lsn_ = lsn;
  if (CrashHereLocked("wal.append")) return sticky_;
  return lsn;
}

Status WalManager::EnsureLiveSegmentLocked() {
  if (live_ != nullptr) return Status::OK();
  std::string path = SegmentPath(dir_, live_start_lsn_);
  TBM_ASSIGN_OR_RETURN(live_, AppendOnlyFile::Open(path));
  if (live_->size() == 0) {
    BinaryWriter header;
    header.WriteU32(kSegmentMagic);
    header.WriteU32(kSegmentVersion);
    header.WriteU64(live_start_lsn_);
    TBM_RETURN_IF_ERROR(live_->Append(header.buffer()));
  }
  // Recovery may have left a (truncated) segment with this exact start
  // LSN; continue it instead of tracking a duplicate.
  if (segments_.empty() || segments_.back().start_lsn != live_start_lsn_) {
    segments_.push_back({live_start_lsn_, path, live_->size()});
  } else {
    segments_.back().bytes = live_->size();
  }
  return Status::OK();
}

Status WalManager::WriteBatchLocked(std::unique_lock<std::mutex>& lk,
                                    Bytes batch, uint64_t batch_last_lsn,
                                    uint64_t batch_records) {
  sync_in_progress_ = true;
  Status status = EnsureLiveSegmentLocked();
  AppendOnlyFile* file = live_.get();
  bool teared = false;
  if (status.ok() && options_.crash != nullptr &&
      options_.crash->ShouldCrash("wal.sync_begin")) {
    // A kill mid-write: half the batch reaches the file, unsynced —
    // the torn-tail case recovery must stop cleanly at.
    ByteSpan half(batch.data(), batch.size() / 2);
    (void)file->Append(half);
    FreezeLocked("wal.sync_begin");
    teared = true;
    status = sticky_;
  }
  if (status.ok() && !teared) {
    lk.unlock();
    status = file->Append(batch);
    if (status.ok() && options_.sync == SyncMode::kSync) {
      auto& m = WalMetrics::Get();
      obs::ScopedTimerUs timer(m.fsync_us);
      status = file->Sync();
      m.fsyncs->Add();
    }
    lk.lock();
  }
  sync_in_progress_ = false;
  if (!frozen_ && status.ok()) {
    CrashHereLocked("wal.sync_end");  // Durable but unacknowledged.
  }
  if (frozen_) {
    status = sticky_;
  } else if (!status.ok()) {
    FreezeLocked("io error");
    sticky_ = status;  // Keep the real I/O error as the sticky status.
  } else {
    durable_lsn_ = std::max(durable_lsn_, batch_last_lsn);
    if (!segments_.empty()) segments_.back().bytes = file->size();
    auto& m = WalMetrics::Get();
    m.records->Add(batch_records);
    m.appended_bytes->Add(batch.size());
    m.group_records->Record(batch_records);
  }
  cv_.notify_all();
  return status;
}

Status WalManager::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (durable_lsn_ >= lsn) return Status::OK();
    if (frozen_) return sticky_;
    if (!sync_in_progress_) break;
    cv_.wait(lk);
  }
  // Leader: take everything buffered so far under one fsync.
  Bytes batch = std::move(pending_);
  pending_ = Bytes();
  uint64_t batch_last = last_buffered_lsn_;
  uint64_t batch_records = pending_records_;
  pending_records_ = 0;
  TBM_RETURN_IF_ERROR(WriteBatchLocked(lk, std::move(batch), batch_last,
                                       batch_records));
  return durable_lsn_ >= lsn
             ? Status::OK()
             : Status::Internal("group commit lost lsn " +
                                std::to_string(lsn));
}

// ---------------------------------------------------------------------------
// Checkpoint protocol

Result<uint64_t> WalManager::RotateForCheckpoint() {
  std::unique_lock<std::mutex> lk(mu_);
  while (sync_in_progress_) cv_.wait(lk);
  if (frozen_) return sticky_;
  uint64_t checkpoint_lsn = next_lsn_ - 1;
  if (!pending_.empty()) {
    Bytes batch = std::move(pending_);
    pending_ = Bytes();
    uint64_t batch_records = pending_records_;
    pending_records_ = 0;
    TBM_RETURN_IF_ERROR(WriteBatchLocked(lk, std::move(batch),
                                         last_buffered_lsn_, batch_records));
  }
  live_.reset();  // Subsequent commits open a fresh segment.
  live_start_lsn_ = checkpoint_lsn + 1;
  if (CrashHereLocked("wal.rotate")) return sticky_;
  return checkpoint_lsn;
}

Status WalManager::InstallCheckpoint(const std::string& snapshot_path,
                                     ByteSpan snapshot,
                                     uint64_t checkpoint_lsn) {
  auto& m = WalMetrics::Get();
  obs::ScopedTimerUs timer(m.checkpoint_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (frozen_) return sticky_;
  }
  // 1. Snapshot to a temp sibling, fsynced. Truncate on open: a
  // checkpoint that crashed after writing this file leaves it behind,
  // and appending after those stale bytes would publish a
  // concatenation whose CRC never matches the superblock's.
  const std::string tmp = snapshot_path + ".ckpt";
  {
    TBM_ASSIGN_OR_RETURN(std::unique_ptr<AppendOnlyFile> file,
                         AppendOnlyFile::Open(tmp, /*truncate=*/true));
    TBM_RETURN_IF_ERROR(file->Append(snapshot));
    TBM_RETURN_IF_ERROR(file->Sync());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (CrashHereLocked("ckpt.temp_written")) return sticky_;
  }
  // 2. Atomic publish of the snapshot.
  if (std::rename(tmp.c_str(), snapshot_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename snapshot into place: " +
                           snapshot_path);
  }
  TBM_RETURN_IF_ERROR(FsyncDir(dir_));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (CrashHereLocked("ckpt.renamed")) return sticky_;
  }
  // 3. Superblock publish — the checkpoint's commit point.
  Superblock super;
  super.checkpoint_lsn = checkpoint_lsn;
  super.snapshot_crc = Crc32(snapshot);
  super.snapshot_bytes = snapshot.size();
  super.checkpoint_count = superblock_.checkpoint_count + 1;
  TBM_RETURN_IF_ERROR(StoreSuperblock(dir_, super));
  {
    std::lock_guard<std::mutex> lock(mu_);
    superblock_ = super;
    has_superblock_ = true;
    if (CrashHereLocked("ckpt.super_written")) return sticky_;
  }
  // 4. Truncate the log: every segment the snapshot superseded goes.
  // Partition entirely under mu_ — a concurrent committer can grow
  // segments_ (invalidating iterators) the moment the lock drops — and
  // only unlink the collected paths once it is released.
  uint64_t truncated = 0;
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Segment> keep;
    for (Segment& segment : segments_) {
      bool is_live = live_ != nullptr && segment.start_lsn == live_start_lsn_;
      if (!is_live && segment.start_lsn <= checkpoint_lsn) {
        truncated += segment.bytes;
        doomed.push_back(std::move(segment.path));
      } else {
        keep.push_back(std::move(segment));
      }
    }
    segments_ = std::move(keep);
  }
  for (const std::string& path : doomed) std::remove(path.c_str());
  TBM_RETURN_IF_ERROR(FsyncDir(dir_));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (CrashHereLocked("ckpt.done")) return sticky_;
  }
  m.checkpoints->Add();
  flight_.Record(obs::FlightEventType::kCheckpoint, "install",
                 checkpoint_lsn, truncated);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection

WalStatus WalManager::GetStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStatus status;
  status.enabled = true;
  status.last_lsn = next_lsn_ - 1;
  status.durable_lsn = durable_lsn_;
  status.checkpoint_lsn = superblock_.checkpoint_lsn;
  status.checkpoint_count = superblock_.checkpoint_count;
  status.segments = segments_.size();
  for (const Segment& segment : segments_) status.wal_bytes += segment.bytes;
  return status;
}

uint64_t WalManager::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

uint64_t WalManager::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t WalManager::bytes_since_checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const Segment& segment : segments_) bytes += segment.bytes;
  return bytes;
}

bool WalManager::frozen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frozen_;
}

}  // namespace tbm::wal
