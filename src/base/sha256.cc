#include "base/sha256.h"

#include <algorithm>
#include <cstring>

#include "base/sha256_internal.h"
#include "base/simd.h"

#if defined(TBM_SIMD_SSE2) && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GNUC__)
#define TBM_SHA256_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tbm {

namespace sha256_internal {
namespace {

constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                       0x1f83d9ab, 0x5be0cd19};

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void CompressBlocksScalar(uint32_t state[8], const uint8_t* blocks,
                          size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(blocks[4 * i]) << 24) |
             (uint32_t(blocks[4 * i + 1]) << 16) |
             (uint32_t(blocks[4 * i + 2]) << 8) | uint32_t(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

namespace {

#if defined(TBM_SHA256_SHANI)

// The 64 rounds as 16 groups of four. Group g's message words
// W[4g..4g+3] live in m[g % 4]; sha256msg1/msg2 build each later group
// from the four before it while the rounds run.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressBlocksShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  // The rounds instruction keeps the state as ABEF and CDGH.
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        m[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          m[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        &kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i next = _mm_add_epi32(
            m[(g + 1) % 4], _mm_alignr_epi8(m[g % 4], m[(g + 3) % 4], 4));
        m[(g + 1) % 4] = _mm_sha256msg2_epu32(next, m[g % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g >= 1 && g <= 12) {
        m[(g + 3) % 4] = _mm_sha256msg1_epu32(m[(g + 3) % 4], m[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

bool CpuHasShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = ecx & (1u << 9), sse41 = ecx & (1u << 19);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ssse3 && sse41 && (ebx & (1u << 29)) != 0;
}

#endif  // TBM_SHA256_SHANI

// Pads the last `tail_len` (< 64) bytes of a `total`-byte message,
// compresses them into `state` and returns the digest.
Sha256Digest PadAndDigest(uint32_t state[8], const uint8_t* tail,
                          size_t tail_len, uint64_t total,
                          CompressFn compress) {
  // 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length.
  uint8_t block[128] = {};
  if (tail_len > 0) std::memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  const size_t len = tail_len < 56 ? 64 : 128;
  const uint64_t bit_length = total * 8;
  for (int i = 0; i < 8; ++i) {
    block[len - 8 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress(state, block, len / 64);
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest.bytes[4 * i] = static_cast<uint8_t>(state[i] >> 24);
    digest.bytes[4 * i + 1] = static_cast<uint8_t>(state[i] >> 16);
    digest.bytes[4 * i + 2] = static_cast<uint8_t>(state[i] >> 8);
    digest.bytes[4 * i + 3] = static_cast<uint8_t>(state[i]);
  }
  return digest;
}

}  // namespace

CompressFn ActiveCompress() {
#if defined(TBM_SHA256_SHANI)
  static const CompressFn compress =
      CpuHasShaNi() ? CompressBlocksShaNi : CompressBlocksScalar;
  return compress;
#else
  return CompressBlocksScalar;
#endif
}

Sha256Digest HashScalar(ByteSpan data) {
  uint32_t state[8];
  std::copy(kInitialState, kInitialState + 8, state);
  const size_t full = data.size() / 64;
  CompressBlocksScalar(state, data.data(), full);
  return PadAndDigest(state, data.data() + 64 * full, data.size() % 64,
                      data.size(), CompressBlocksScalar);
}

}  // namespace sha256_internal

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Sha256Digest::ToHex() const {
  std::string hex(64, '0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    hex[2 * i] = kHexDigits[bytes[i] >> 4];
    hex[2 * i + 1] = kHexDigits[bytes[i] & 0x0F];
  }
  return hex;
}

bool Sha256Digest::FromHex(std::string_view hex, Sha256Digest* out) {
  if (hex.size() != 64) return false;
  for (size_t i = 0; i < 32; ++i) {
    int hi = HexValue(hex[2 * i]);
    int lo = HexValue(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->bytes[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return true;
}

Sha256::Sha256() {
  std::copy(sha256_internal::kInitialState, sha256_internal::kInitialState + 8,
            state_);
}

void Sha256::Update(ByteSpan data) {
  const sha256_internal::CompressFn compress =
      sha256_internal::ActiveCompress();
  total_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (pending_len_ > 0) {
    size_t take = std::min(n, sizeof(pending_) - pending_len_);
    std::memcpy(pending_ + pending_len_, p, take);
    pending_len_ += take;
    p += take;
    n -= take;
    if (pending_len_ == sizeof(pending_)) {
      compress(state_, pending_, 1);
      pending_len_ = 0;
    }
  }
  if (n >= 64) {
    compress(state_, p, n / 64);
    p += n & ~size_t{63};
    n &= 63;
  }
  if (n > 0) {
    std::memcpy(pending_, p, n);
    pending_len_ = n;
  }
}

Sha256Digest Sha256::Finish() {
  return sha256_internal::PadAndDigest(state_, pending_, pending_len_, total_,
                                       sha256_internal::ActiveCompress());
}

Sha256Digest Sha256::Hash(ByteSpan data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace tbm
