#ifndef TBM_BASE_SHA256_INTERNAL_H_
#define TBM_BASE_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "base/sha256.h"

/// The SHA-256 compression function behind Sha256, exposed so tests can
/// hold the CPU-dispatched path to the portable reference. There is no
/// switch: the path is fixed by the build and the CPU.
namespace tbm::sha256_internal {

/// Compresses `nblocks` consecutive 64-byte blocks at `blocks` into
/// `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks);

/// The portable FIPS 180-4 reference; every build has it.
void CompressBlocksScalar(uint32_t state[8], const uint8_t* blocks,
                          size_t nblocks);

/// The compression function Sha256 runs: the x86 SHA extensions
/// (SHA-NI) when the CPU reports them, else CompressBlocksScalar.
/// Chosen once by CPUID. TBM_SIMD_DISABLED builds and non-x86 targets
/// always get the scalar reference.
CompressFn ActiveCompress();

/// Digest of `data` computed with CompressBlocksScalar only.
Sha256Digest HashScalar(ByteSpan data);

}  // namespace tbm::sha256_internal

#endif  // TBM_BASE_SHA256_INTERNAL_H_
