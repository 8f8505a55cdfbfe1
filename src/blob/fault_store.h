#ifndef TBM_BLOB_FAULT_STORE_H_
#define TBM_BLOB_FAULT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "blob/blob_store.h"

namespace tbm {

/// Behaviour of a FaultInjectingStore.
struct FaultConfig {
  /// Probability that a Read fails with `code`, per call, in [0, 1].
  /// Draws are deterministic: a hash of (seed, call index).
  double read_fault_rate = 0.0;

  /// Probability that a push handle Push fails with `code`, per call.
  double append_fault_rate = 0.0;

  /// Seed of the deterministic fault sequence.
  uint64_t seed = 1;

  /// Error code injected faults carry. Retry policies treat IOError
  /// and ResourceExhausted as transient (see blob/read_policy.h).
  StatusCode code = StatusCode::kIOError;

  /// Simulated device latency added to every successful Read: a fixed
  /// per-operation cost (seek / request round-trip) plus a throughput
  /// cost per KiB transferred. Both in microseconds; 0 disables. This
  /// turns any store into a model of a slow sequential device, which
  /// is what the streaming ablation bench uses for its cold-read
  /// baseline.
  double read_latency_fixed_us = 0.0;
  double read_latency_per_kib_us = 0.0;
};

/// Decorator injecting transient faults and device latency into any
/// BlobStore — the adversary the streaming pipeline's retry/backoff
/// layer is tested against.
///
/// Probabilistic faults are drawn from a counter-hash PRNG, so a run
/// is reproducible given the seed yet thread-safe (the counter is
/// atomic). Scripted faults (`FailNextReads`) take precedence over
/// probabilistic ones and fail deterministically, which is what the
/// retry tests use to exercise exact fault sequences.
class FaultInjectingStore final : public BlobStore {
 public:
  explicit FaultInjectingStore(std::unique_ptr<BlobStore> inner,
                               FaultConfig config = {});

  /// Streaming push through the fault layer: wraps the inner store's
  /// handle and injects `append_fault_rate` faults into Push calls.
  Result<std::unique_ptr<PushHandle>> StartPush() override;

  /// The wrapped store (owned).
  BlobStore* inner() { return inner_.get(); }
  const BlobStore* inner() const { return inner_.get(); }

  const FaultConfig& config() const { return config_; }

  /// Forces the next `n` Read calls to fail (before any probabilistic
  /// draw). Thread-safe.
  void FailNextReads(int n) { forced_read_faults_.store(n); }

  /// Total faults injected into reads / appends so far.
  uint64_t injected_read_faults() const { return read_faults_.load(); }
  uint64_t injected_append_faults() const { return append_faults_.load(); }
  /// Total Read calls observed (failed or not).
  uint64_t reads_seen() const { return reads_seen_.load(); }

  Result<BufferSlice> Read(BlobId id, ByteRange range) const override;
  Result<uint64_t> Size(BlobId id) const override;
  Status Delete(BlobId id) override;
  bool Exists(BlobId id) const override;
  std::vector<BlobId> List() const override;

 private:
  Status MakeFault(const char* op) const;
  bool DrawFault(double rate) const;

  std::unique_ptr<BlobStore> inner_;
  FaultConfig config_;
  mutable std::atomic<uint64_t> draws_{0};
  mutable std::atomic<int> forced_read_faults_{0};
  mutable std::atomic<uint64_t> read_faults_{0};
  mutable std::atomic<uint64_t> append_faults_{0};
  mutable std::atomic<uint64_t> reads_seen_{0};
};

}  // namespace tbm

#endif  // TBM_BLOB_FAULT_STORE_H_
