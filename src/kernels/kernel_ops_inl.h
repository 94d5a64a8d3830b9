// Shared portable implementations of the KernelOps primitives.
//
// Each kernel translation unit includes this header and instantiates the
// functions it does not hand-write, so every kernel computes identical
// results by construction while the compiler is free to auto-vectorize
// under that TU's flags (e.g. kernel_avx2.cc is built with -mavx2, so the
// same source compiles to vpxor/popcnt/vpaddq there and to plain scalar
// code in kernel_scalar.cc). Only include from src/kernels/*.cc.

#ifndef BITPUSH_KERNELS_KERNEL_OPS_INL_H_
#define BITPUSH_KERNELS_KERNEL_OPS_INL_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

namespace bitpush {
namespace kernels {
namespace portable {

// The reference encode, byte-for-byte the arithmetic of
// FixedPointCodec::Encode. Hand-written SIMD encodes must match this
// exactly (tests/kernels_test.cc sweeps ties and boundaries).
inline uint64_t EncodeOne(double x, const EncodeParams& p) {
  const double clipped = std::clamp(x, p.low, p.high);
  const double scaled = (clipped - p.low) * p.scale;
  const auto codeword = static_cast<uint64_t>(std::llround(scaled));
  return std::min(codeword, p.max_codeword);
}

inline void EncodeCodewords(const double* in, int64_t n,
                            const EncodeParams& params, uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = EncodeOne(in[i], params);
}

// Bit-plane split via the byte-gather multiply trick: for each window of
// 64 clients and each codeword byte lane, pack one byte from 8 clients
// into a word and gather bit k of every byte with a single multiply.
// The magic constant (bytes 2^7, 2^6, ..., 2^0 from the low byte up)
// moves bit k of byte r to bit r of the top byte with no carry collisions,
// preserving client order. Pure integer code — every kernel that compiles
// this computes the same planes.
inline void BuildPlanes(const uint64_t* codewords, const int* assignment,
                        int64_t n, int bits, int64_t stride, uint64_t* planes,
                        uint64_t* selection) {
  const int lanes = (bits + 7) / 8;
  const int64_t words = WordsForBits(n);
  for (int64_t w = 0; w < words; ++w) {
    const int64_t base = w * 64;
    const int have = static_cast<int>(std::min<int64_t>(64, n - base));
    uint64_t out[64] = {0};
    for (int g = 0; g * 8 < have; ++g) {
      const int in_group = std::min(8, have - g * 8);
      for (int lane = 0; lane < lanes; ++lane) {
        uint64_t packed = 0;
        for (int r = 0; r < in_group; ++r) {
          packed |= ((codewords[base + g * 8 + r] >> (8 * lane)) & 0xFF)
                    << (8 * r);
        }
        const int lane_bits = std::min(8, bits - 8 * lane);
        for (int k = 0; k < lane_bits; ++k) {
          const uint64_t gathered =
              (((packed >> k) & 0x0101010101010101ULL) *
               0x0102040810204080ULL) >>
              56;
          out[8 * lane + k] |= gathered << (8 * g);
        }
      }
    }
    for (int j = 0; j < bits; ++j) planes[j * stride + w] = out[j];
    uint64_t sel[64] = {0};
    for (int r = 0; r < have; ++r) {
      sel[assignment[base + r]] |= uint64_t{1} << r;
    }
    for (int j = 0; j < bits; ++j) selection[j * stride + w] = sel[j];
  }
}

inline void XorWords(uint64_t* dst, const uint64_t* mask, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] ^= mask[i];
}

inline void XorMaskedWords(uint64_t* dst, const uint64_t* mask,
                           const uint64_t* gate, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] ^= mask[i] & gate[i];
}

inline int64_t PopcountWords(const uint64_t* words, int64_t n) {
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

inline int64_t PopcountAndWords(const uint64_t* a, const uint64_t* b,
                                int64_t n) {
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

inline void AddWords(uint64_t* dst, const uint64_t* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

inline uint64_t ReduceAddWords(const uint64_t* words, int64_t n) {
  uint64_t sum = 0;
  for (int64_t i = 0; i < n; ++i) sum += words[i];
  return sum;
}

// The slicing-by-8 CRC-32 (kernels/crc32.cc, compiled with baseline
// flags): the scalar kernel's crc32_extend, and the short-input and tail
// path of the folding kernels.
uint32_t Crc32Table(uint32_t crc, const uint8_t* data, size_t size);

}  // namespace portable

// Internal accessors for the optional SIMD kernels; defined only in their
// respective translation units and referenced only by dispatch.cc under
// the matching BITPUSH_SIMD_* define.
const KernelOps& Avx2Kernel();
const KernelOps& NeonKernel();

}  // namespace kernels
}  // namespace bitpush

#endif  // BITPUSH_KERNELS_KERNEL_OPS_INL_H_
