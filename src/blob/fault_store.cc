#include "blob/fault_store.h"

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "base/macros.h"

namespace tbm {

namespace {

/// splitmix64 — a statistically solid 64-bit mixer, used here to turn
/// (seed, call index) into an independent uniform draw per call.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjectingStore::FaultInjectingStore(std::unique_ptr<BlobStore> inner,
                                         FaultConfig config)
    : inner_(std::move(inner)), config_(config) {}

bool FaultInjectingStore::DrawFault(double rate) const {
  if (rate <= 0.0) return false;
  uint64_t draw = Mix64(config_.seed ^ draws_.fetch_add(1));
  return static_cast<double>(draw >> 11) / static_cast<double>(1ull << 53) <
         rate;
}

Status FaultInjectingStore::MakeFault(const char* op) const {
  return Status(config_.code,
                std::string("injected fault on ") + op + " (seed " +
                    std::to_string(config_.seed) + ")");
}

namespace {

/// Push handle of the fault decorator: forwards to the wrapped store's
/// handle, drawing an append fault before each Push so retry layers
/// above see transient write failures mid-stream.
class FaultPushHandle final : public PushHandle {
 public:
  FaultPushHandle(std::unique_ptr<PushHandle> inner,
                  std::function<bool()> draw_fault,
                  std::function<Status()> make_fault,
                  std::atomic<uint64_t>* fault_count)
      : inner_(std::move(inner)),
        draw_fault_(std::move(draw_fault)),
        make_fault_(std::move(make_fault)),
        fault_count_(fault_count) {}

  Status Push(ByteSpan data) override {
    if (draw_fault_()) {
      fault_count_->fetch_add(1);
      return make_fault_();
    }
    return inner_->Push(data);
  }

  Result<BlobId> Finish() override { return inner_->Finish(); }
  Status Abort() override { return inner_->Abort(); }
  uint64_t bytes_pushed() const override { return inner_->bytes_pushed(); }

 private:
  std::unique_ptr<PushHandle> inner_;
  std::function<bool()> draw_fault_;
  std::function<Status()> make_fault_;
  std::atomic<uint64_t>* fault_count_;
};

}  // namespace

Result<std::unique_ptr<PushHandle>> FaultInjectingStore::StartPush() {
  TBM_ASSIGN_OR_RETURN(std::unique_ptr<PushHandle> inner_handle,
                       inner_->StartPush());
  return std::unique_ptr<PushHandle>(std::make_unique<FaultPushHandle>(
      std::move(inner_handle),
      [this] { return DrawFault(config_.append_fault_rate); },
      [this] { return MakeFault("push"); }, &append_faults_));
}

Result<BufferSlice> FaultInjectingStore::Read(BlobId id, ByteRange range) const {
  reads_seen_.fetch_add(1);
  int forced = forced_read_faults_.load();
  while (forced > 0) {
    if (forced_read_faults_.compare_exchange_weak(forced, forced - 1)) {
      read_faults_.fetch_add(1);
      return MakeFault("read");
    }
  }
  if (DrawFault(config_.read_fault_rate)) {
    read_faults_.fetch_add(1);
    return MakeFault("read");
  }
  if (config_.read_latency_fixed_us > 0 ||
      config_.read_latency_per_kib_us > 0) {
    double us = config_.read_latency_fixed_us +
                config_.read_latency_per_kib_us *
                    (static_cast<double>(range.length) / 1024.0);
    if (us > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(us));
    }
  }
  return inner_->Read(id, range);
}

Result<uint64_t> FaultInjectingStore::Size(BlobId id) const {
  return inner_->Size(id);
}

Status FaultInjectingStore::Delete(BlobId id) { return inner_->Delete(id); }

bool FaultInjectingStore::Exists(BlobId id) const {
  return inner_->Exists(id);
}

std::vector<BlobId> FaultInjectingStore::List() const {
  return inner_->List();
}

}  // namespace tbm
