#ifndef TBM_BASE_SHA256_H_
#define TBM_BASE_SHA256_H_

#include <array>
#include <cstdint>
#include <string>

#include "base/bytes.h"

namespace tbm {

/// A 256-bit content digest — the key of the content-addressed BLOB
/// tier. Wrapped in a struct so digests compare, hash and print as
/// values rather than raw arrays.
struct Sha256Digest {
  std::array<uint8_t, 32> bytes{};

  /// Lower-case 64-character hex form, used for on-disk shard paths
  /// (`xx/yy/<hex>`) and human-readable output.
  std::string ToHex() const;

  /// Parses a 64-character hex string; returns false on malformed
  /// input (wrong length or non-hex characters).
  static bool FromHex(std::string_view hex, Sha256Digest* out);

  friend bool operator==(const Sha256Digest& a, const Sha256Digest& b) {
    return a.bytes == b.bytes;
  }
  friend bool operator!=(const Sha256Digest& a, const Sha256Digest& b) {
    return !(a == b);
  }
  friend bool operator<(const Sha256Digest& a, const Sha256Digest& b) {
    return a.bytes < b.bytes;
  }
};

/// Incremental SHA-256 (FIPS 180-4). Streaming-friendly: the CAS push
/// path feeds each pushed span through Update() so the content hash is
/// ready the moment the last byte lands, without buffering the BLOB.
///
///   Sha256 hasher;
///   hasher.Update(span_a);
///   hasher.Update(span_b);
///   Sha256Digest digest = hasher.Finish();
///
/// Finish() may be called once; the hasher is not reusable afterwards.
/// On x86 CPUs with the SHA extensions the blocks are compressed by
/// SHA-NI instructions, chosen once by CPUID; the digest is the same on
/// every path (base/sha256_internal.h).
class Sha256 {
 public:
  Sha256();

  /// Absorbs `data` into the running hash.
  void Update(ByteSpan data);

  /// Completes padding and returns the digest of everything updated.
  Sha256Digest Finish();

  /// Total bytes absorbed so far.
  uint64_t bytes_hashed() const { return total_; }

  /// One-shot convenience.
  static Sha256Digest Hash(ByteSpan data);

 private:
  uint32_t state_[8];
  uint64_t total_ = 0;          ///< Message length in bytes.
  uint8_t pending_[64];         ///< Partial block not yet compressed.
  size_t pending_len_ = 0;
};

}  // namespace tbm

#endif  // TBM_BASE_SHA256_H_
