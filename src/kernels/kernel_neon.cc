// NEON (aarch64) kernel. This translation unit is the only place outside
// kernel_avx2.cc allowed to include an architecture intrinsics header (the
// bitpush_lint header-hygiene check enforces this).
//
// encode_codewords stays on the shared scalar path: AdvSIMD's frinta
// (round-half-away) would match llround, but the clamp/scale chain is
// already memory-bound on typical aarch64 parts and exactness matters more
// than the last 20% here. The bitwise ops use explicit NEON intrinsics —
// veor for XOR, vcnt + pairwise widening adds for popcount, vadd.2d for
// the secure-agg sums — and remain bit-identical to the scalar kernel
// because they are pure integer data movement. The CRC-32 stays on the
// scalar kernel's table.

#include "kernels/kernel_ops_inl.h"
#include "kernels/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstdint>

namespace bitpush {
namespace kernels {
namespace {

void XorWordsNeon(uint64_t* dst, const uint64_t* mask, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(dst + i), vld1q_u64(mask + i)));
  }
  for (; i < n; ++i) dst[i] ^= mask[i];
}

void XorMaskedWordsNeon(uint64_t* dst, const uint64_t* mask,
                        const uint64_t* gate, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t gated =
        vandq_u64(vld1q_u64(mask + i), vld1q_u64(gate + i));
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(dst + i), gated));
  }
  for (; i < n; ++i) dst[i] ^= mask[i] & gate[i];
}

inline uint64_t PopcountPair(uint64x2_t v) {
  // Per-byte counts, then widen 8->16->32->64 and sum the two lanes.
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return vaddvq_u64(vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes))));
}

int64_t PopcountWordsNeon(const uint64_t* words, int64_t n) {
  int64_t total = 0;
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += static_cast<int64_t>(PopcountPair(vld1q_u64(words + i)));
  }
  for (; i < n; ++i) total += __builtin_popcountll(words[i]);
  return total;
}

int64_t PopcountAndWordsNeon(const uint64_t* a, const uint64_t* b,
                             int64_t n) {
  int64_t total = 0;
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += static_cast<int64_t>(
        PopcountPair(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  }
  for (; i < n; ++i) total += __builtin_popcountll(a[i] & b[i]);
  return total;
}

void AddWordsNeon(uint64_t* dst, const uint64_t* src, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vaddq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

uint64_t ReduceAddWordsNeon(const uint64_t* words, int64_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_u64(acc, vld1q_u64(words + i));
  uint64_t sum = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) sum += words[i];
  return sum;
}

}  // namespace

const KernelOps& NeonKernel() {
  static constexpr KernelOps kOps = {
      "neon",
      portable::EncodeCodewords,
      portable::BuildPlanes,
      XorWordsNeon,
      XorMaskedWordsNeon,
      PopcountWordsNeon,
      PopcountAndWordsNeon,
      AddWordsNeon,
      ReduceAddWordsNeon,
      portable::Crc32Table,
  };
  return kOps;
}

}  // namespace kernels
}  // namespace bitpush

#else  // !aarch64

namespace bitpush {
namespace kernels {

const KernelOps& NeonKernel() { return ScalarKernel(); }

}  // namespace kernels
}  // namespace bitpush

#endif  // defined(__aarch64__) && defined(__ARM_NEON)
