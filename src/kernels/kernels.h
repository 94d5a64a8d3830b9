// Portable SIMD kernel layer for the columnar data plane (src/batch/).
//
// The paper's efficiency argument is that one-bit reports turn aggregation
// into a counting problem; this layer makes the counting run as fast as the
// hardware allows. A kernel is a table of function pointers (`KernelOps`)
// over two columnar primitives:
//
//   * packed bit vectors — n client bits stored LSB-first in contiguous
//     `uint64_t` words (client i lives at bit `i % 64` of word `i / 64`;
//     bits at positions >= n of the last word are zero), and
//   * codeword arrays — one `uint64_t` fixed-point codeword per client.
//
// plus the CRC-32 behind every persisted journal frame and snapshot
// (util/bytes.h), which on x86-64 folds 64 bytes per step with carry-less
// multiplies.
//
// Three implementations exist: a scalar fallback (always compiled), an
// AVX2 kernel (x86-64, compiled when BITPUSH_SIMD is ON; selected on CPUs
// with both AVX2 and PCLMUL), and a NEON kernel (aarch64). `ActiveKernel()` picks the best one at runtime from
// CPU features, the `BITPUSH_SIMD=OFF` environment override, and
// `ScopedForceScalar` (used by the differential tests).
//
// Determinism contract: every kernel computes the *same function* —
// `encode_codewords` reproduces `FixedPointCodec::Encode` bit for bit
// (including llround's round-half-away-from-zero ties), `crc32_extend`
// is the one CRC-32 however it is folded, and the remaining ops are
// integer data movement with a single well-defined result. All
// randomness is generated outside the kernels by shared scalar code
// (`FillBernoulliWords` here, `RandomizedResponse::DrawFlip` in ldp/)
// drawing from an explicit `Rng`, so switching kernels can never change a
// tally, a meter charge, or a wire byte. See docs/KERNELS.md.

#ifndef BITPUSH_KERNELS_KERNELS_H_
#define BITPUSH_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "rng/rng.h"

namespace bitpush {
namespace kernels {

// Parameters of the fixed-point encode, mirroring FixedPointCodec:
// encode(x) = min(llround((clamp(x, low, high) - low) * scale), max_codeword).
struct EncodeParams {
  double low = 0.0;
  double high = 1.0;
  double scale = 1.0;
  uint64_t max_codeword = 1;
};

// A table of columnar primitives. All word counts are in uint64_t units;
// regions may not alias unless stated. Implementations must tolerate
// n == 0.
struct KernelOps {
  // Human-readable kernel name ("scalar", "avx2", "neon").
  const char* name;

  // out[i] = min(llround((clamp(in[i], low, high) - low) * scale),
  //              max_codeword), exactly as FixedPointCodec::Encode.
  void (*encode_codewords)(const double* in, int64_t n,
                           const EncodeParams& params, uint64_t* out);

  // Splits codewords into bit planes and scatters selection masks.
  // For client i with assignment[i] == j: bit i of plane k receives bit k
  // of codewords[i] for every k < bits, and bit i of selection plane j is
  // set. `planes` and `selection` are bits * stride words each, stride >=
  // WordsForBits(n), and must be zeroed by the caller.
  void (*build_planes)(const uint64_t* codewords, const int* assignment,
                       int64_t n, int bits, int64_t stride, uint64_t* planes,
                       uint64_t* selection);

  // dst[i] ^= mask[i].
  void (*xor_words)(uint64_t* dst, const uint64_t* mask, int64_t n);

  // dst[i] ^= mask[i] & gate[i] (flip only gated positions).
  void (*xor_masked_words)(uint64_t* dst, const uint64_t* mask,
                           const uint64_t* gate, int64_t n);

  // Total number of set bits in words[0..n).
  int64_t (*popcount_words)(const uint64_t* words, int64_t n);

  // Total number of set bits in a[i] & b[i] over i in [0, n).
  int64_t (*popcount_and_words)(const uint64_t* a, const uint64_t* b,
                                int64_t n);

  // dst[i] += src[i] (mod 2^64) — secure-agg mask application / merging.
  void (*add_words)(uint64_t* dst, const uint64_t* src, int64_t n);

  // Sum of words[0..n) mod 2^64 — secure-agg reconstruction.
  uint64_t (*reduce_add_words)(const uint64_t* words, int64_t n);

  // Continues the CRC-32 `crc` (IEEE 802.3 polynomial, reflected; the
  // value bytes::Crc32 returns) over `size` more bytes at `data`, which
  // may be unaligned: crc32_extend(Crc32(a), b) == Crc32(a followed by b).
  // The AVX2 kernel folds inputs of 64 bytes or more with PCLMULQDQ; every
  // kernel gives shorter inputs to the scalar kernel's table.
  uint32_t (*crc32_extend)(uint32_t crc, const uint8_t* data, size_t size);
};

// The scalar fallback (always available).
const KernelOps& ScalarKernel();

// The best kernel for this process: scalar unless a SIMD kernel was
// compiled in, the CPU supports it, the BITPUSH_SIMD environment variable
// is not "OFF"/"off"/"0", and no ScopedForceScalar is live. The
// environment is read once, on first use.
const KernelOps& ActiveKernel();

// True when ActiveKernel() currently resolves to a non-scalar kernel.
bool SimdActive();

// Forces ActiveKernel() to return the scalar kernel while in scope. Used
// by the scalar-vs-SIMD differential oracles. Nestable and thread-safe
// (the force flag is a process-wide atomic count).
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();

  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

// Number of uint64_t words holding n packed bits.
constexpr int64_t WordsForBits(int64_t n_bits) { return (n_bits + 63) / 64; }

// Mask of the bits of the last word that are in range for n packed bits
// (all ones when n is a multiple of 64 and n > 0).
constexpr uint64_t TailMask(int64_t n_bits) {
  return (n_bits % 64 == 0) ? ~uint64_t{0}
                            : ((uint64_t{1} << (n_bits % 64)) - 1);
}

// Fills WordsForBits(n_bits) words with independent Bernoulli(probability)
// bits drawn from `rng`; bits at positions >= n_bits are zero. The
// probability is quantized to q = llround(probability * 2^32) / 2^32
// (quantization error <= 2^-33) and each word is built from the binary
// expansion of q with one rng word per expansion level, so the cost is at
// most 32 rng draws per 64 bits. This is *shared scalar code*, not a
// kernel op: the mask stream depends only on `rng`, never on the kernel,
// which is what makes scalar and SIMD runs bit-identical.
void FillBernoulliWords(double probability, int64_t n_bits, Rng& rng,
                        uint64_t* out);

}  // namespace kernels
}  // namespace bitpush

#endif  // BITPUSH_KERNELS_KERNELS_H_
