// AVX2 kernel. This translation unit is compiled with -mavx2 -mpclmul (see
// src/CMakeLists.txt); nothing outside src/kernels/ may assume either.
//
// encode_codewords is hand-written because no compiler auto-vectorizes
// llround's round-half-away-from-zero. It emulates llround exactly:
//
//   s = (clamp(x) - low) * scale            // s in [0, 2^52] by codec bounds
//   d = s + 2^52                            // round-to-even to integer: for
//   r = bitcast<int64>(d) - bitcast(2^52)   // d in [2^52, 2^53) the mantissa
//                                           // IS the integer (magic trick)
//   if (s - double(r) == 0.5) r += 1        // even ties where llround goes up
//
// The tie test is exact: r <= 2^52 so double(r) is exact, and s - double(r)
// is computed without rounding (Sterbenz). For s - r < 0.5 or > 0.5 the
// round-to-even result already equals llround. Inputs are finite and
// in-domain after the clamp, so the emulation matches std::llround bit for
// bit — tests/kernels_test.cc sweeps ties, boundaries, and random values
// against the scalar kernel.
//
// popcount_words / popcount_and_words are hand-written too: the scalar
// popcnt instruction the compiler emits for std::popcount runs one word
// per cycle at best, while the vpshufb nibble-LUT form (count the set
// bits of each nibble by table lookup, horizontally sum bytes with
// vpsadbw) counts 32 bytes per ~1.5 cycles. Byte counters are drained
// into 64-bit lanes every 8 vectors, well before they can saturate
// (8 iterations * max 8 per byte = 64 < 255). Popcounts are exact integer
// counts, so the result is identical to the scalar kernel's by
// definition.
//
// crc32_extend folds with carry-less multiplies (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009). The CRC register is a polynomial over GF(2), and
// multiplying a 128-bit lane by x^k mod P(x) moves it k bits further on
// without changing its remainder. Four lanes absorb 64 input bytes per
// step, are folded into one, then 128 bits fold to 64 and a Barrett
// reduction leaves the 32-bit remainder. Every step is exact GF(2)
// arithmetic, so the result equals the table CRC by definition; inputs
// under 64 bytes and the last (size mod 16) bytes go through the scalar
// kernel's table. tests/persist_journal_test.cc checks the two against
// each other at every length and alignment up to 4 KiB, across split
// points, and on 11 MiB.
//
// The remaining ops instantiate the shared portable code from
// kernel_ops_inl.h: under -mavx2 GCC/Clang auto-vectorize the XOR/add
// loops to vpxor/vpaddq, while the results stay bit-identical to the
// scalar kernel by construction.

#include "kernels/kernel_ops_inl.h"
#include "kernels/kernels.h"

#if defined(__AVX2__) && defined(__PCLMUL__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace bitpush {
namespace kernels {
namespace {

void EncodeCodewordsAvx2(const double* in, int64_t n,
                         const EncodeParams& params, uint64_t* out) {
  const __m256d low = _mm256_set1_pd(params.low);
  const __m256d high = _mm256_set1_pd(params.high);
  const __m256d scale = _mm256_set1_pd(params.scale);
  const __m256d magic = _mm256_set1_pd(0x1p52);
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  const __m256i max_codeword =
      _mm256_set1_epi64x(static_cast<long long>(params.max_codeword));
  const __m256d half = _mm256_set1_pd(0.5);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(in + i);
    x = _mm256_min_pd(_mm256_max_pd(x, low), high);
    const __m256d s = _mm256_mul_pd(_mm256_sub_pd(x, low), scale);
    const __m256d d = _mm256_add_pd(s, magic);
    __m256i r = _mm256_sub_epi64(_mm256_castpd_si256(d), magic_bits);
    const __m256d rounded = _mm256_sub_pd(d, magic);
    const __m256i tie = _mm256_castpd_si256(
        _mm256_cmp_pd(_mm256_sub_pd(s, rounded), half, _CMP_EQ_OQ));
    r = _mm256_sub_epi64(r, tie);  // tie lanes are all-ones == -1
    // Codewords are < 2^52, so signed compare is safe (no epu64 min in
    // AVX2).
    const __m256i over = _mm256_cmpgt_epi64(r, max_codeword);
    r = _mm256_blendv_epi8(r, max_codeword, over);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  for (; i < n; ++i) out[i] = portable::EncodeOne(in[i], params);
}

// Per-byte popcount of a 32-byte vector via two nibble table lookups.
inline __m256i PopcountBytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibbles = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_nibbles);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nibbles);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline int64_t HorizontalSum(__m256i acc) {
  const __m128i lanes = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                      _mm256_extracti128_si256(acc, 1));
  return _mm_cvtsi128_si64(lanes) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(lanes, lanes));
}

// Shared core of the two popcount ops: Load() maps a word index to the
// 4-word vector to count.
template <typename LoadVector>
int64_t PopcountVectors(int64_t n, int64_t* tail_start, LoadVector load) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i bytes = zero;
    for (int64_t k = 0; k < 32; k += 4) {
      bytes = _mm256_add_epi8(bytes, PopcountBytes(load(i + k)));
    }
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
  }
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(PopcountBytes(load(i)), zero));
  }
  *tail_start = i;
  return HorizontalSum(acc);
}

int64_t PopcountWordsAvx2(const uint64_t* words, int64_t n) {
  int64_t i = 0;
  int64_t total = PopcountVectors(n, &i, [&](int64_t k) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + k));
  });
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

int64_t PopcountAndWordsAvx2(const uint64_t* a, const uint64_t* b,
                             int64_t n) {
  int64_t i = 0;
  int64_t total = PopcountVectors(n, &i, [&](int64_t k) {
    return _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k)));
  });
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

// Folding needs four 16-byte lanes to start from.
constexpr size_t kCrcFoldMinBytes = 64;

inline __m128i LoadLane(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Moves `lane` on by the distances in `k`: its low half times k's low
// half, plus its high half times k's high half.
inline __m128i FoldLane(__m128i lane, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                       _mm_clmulepi64_si128(lane, k, 0x11));
}

// Runs the CRC register `reg` (the complement of the CRC) over `size`
// bytes, a multiple of 16 and at least kCrcFoldMinBytes, and returns the
// register after them. The constants are the paper's bit-reflected
// x^k mod P(x) for the IEEE polynomial: k1, k2 fold a lane by 512 bits,
// k3, k4 by 128, k5 folds 64 bits to 32, and P'(x), u' drive the Barrett
// reduction.
uint32_t FoldCrc32(uint32_t reg, const uint8_t* data, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(LoadLane(data),
                             _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x2 = LoadLane(data + 16);
  __m128i x3 = LoadLane(data + 32);
  __m128i x4 = LoadLane(data + 48);
  data += kCrcFoldMinBytes;
  size -= kCrcFoldMinBytes;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = _mm_xor_si128(FoldLane(x1, k1k2), LoadLane(data));
    x2 = _mm_xor_si128(FoldLane(x2, k1k2), LoadLane(data + 16));
    x3 = _mm_xor_si128(FoldLane(x3, k1k2), LoadLane(data + 32));
    x4 = _mm_xor_si128(FoldLane(x4, k1k2), LoadLane(data + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = _mm_xor_si128(FoldLane(x1, k3k4), x2);
  x1 = _mm_xor_si128(FoldLane(x1, k3k4), x3);
  x1 = _mm_xor_si128(FoldLane(x1, k3k4), x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = _mm_xor_si128(FoldLane(x1, k3k4), LoadLane(data));
  }
  // 128 bits to 64, then to 32 plus the 64-bit remainder input.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5,
                                          0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

uint32_t Crc32ExtendPclmul(uint32_t crc, const uint8_t* data, size_t size) {
  if (size < kCrcFoldMinBytes) return portable::Crc32Table(crc, data, size);
  const size_t folded = size & ~size_t{15};
  const uint32_t reg = FoldCrc32(~crc, data, folded);
  return portable::Crc32Table(~reg, data + folded, size - folded);
}

}  // namespace

const KernelOps& Avx2Kernel() {
  static constexpr KernelOps kOps = {
      "avx2",
      EncodeCodewordsAvx2,
      portable::BuildPlanes,
      portable::XorWords,
      portable::XorMaskedWords,
      PopcountWordsAvx2,
      PopcountAndWordsAvx2,
      portable::AddWords,
      portable::ReduceAddWords,
      Crc32ExtendPclmul,
  };
  return kOps;
}

}  // namespace kernels
}  // namespace bitpush

#else  // !(defined(__AVX2__) && defined(__PCLMUL__))

// Compiled without -mavx2 -mpclmul (e.g. BITPUSH_SIMD=OFF still lists the
// file, or a non-x86 target picked it up by mistake): fall back to the
// scalar table so the symbol exists but never diverges.
namespace bitpush {
namespace kernels {

const KernelOps& Avx2Kernel() { return ScalarKernel(); }

}  // namespace kernels
}  // namespace bitpush

#endif  // defined(__AVX2__) && defined(__PCLMUL__)
