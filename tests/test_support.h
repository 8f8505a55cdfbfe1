// Test-only helpers shared by the streaming and serve tests.
#ifndef TBM_TESTS_TEST_SUPPORT_H_
#define TBM_TESTS_TEST_SUPPORT_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "blob/blob_store.h"

namespace tbm {

// Polls `done` for up to 5 s: readahead and the server's loop publish
// on their own threads, so "eventually" is the most a test can wait for.
template <typename Fn>
bool Eventually(Fn done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A BlobStore decorator whose reads wait at a gate, so a test can hold
// readahead — and every READ that needs it — at a known point, then
// let reads through one at a time or all at once.
class GatedStore final : public BlobStore {
 public:
  explicit GatedStore(std::unique_ptr<BlobStore> inner)
      : inner_(std::move(inner)) {}

  /// Closes the gate: later reads wait for Admit() or Release().
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    permits_ = 0;
  }

  /// Lets `n` more reads through a closed gate.
  void Admit(int n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      permits_ += n;
    }
    cv_.notify_all();
  }

  /// Opens the gate for good.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Waits (up to 5 s) until `n` reads are parked at the gate.
  bool AwaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return parked_ >= n; });
  }

  Result<std::unique_ptr<PushHandle>> StartPush() override {
    return inner_->StartPush();
  }

  Result<BufferSlice> Read(BlobId id, ByteRange range) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_ || permits_ > 0; });
      if (!open_) --permits_;
      --parked_;
    }
    return inner_->Read(id, range);
  }

  Result<uint64_t> Size(BlobId id) const override { return inner_->Size(id); }
  Status Delete(BlobId id) override { return inner_->Delete(id); }
  bool Exists(BlobId id) const override { return inner_->Exists(id); }
  std::vector<BlobId> List() const override { return inner_->List(); }

 private:
  std::unique_ptr<BlobStore> inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = true;
  mutable int permits_ = 0;
  mutable int parked_ = 0;
};

}  // namespace tbm

#endif  // TBM_TESTS_TEST_SUPPORT_H_
