// Fixed-point encoding and bit decomposition.
//
// Bit-pushing works on b-bit non-negative integers (Section 3.1): real
// inputs are approximated by fixed-point values, expanded in binary, and
// individual binary digits are sampled. The codec maps a real interval
// [low, high] onto {0, ..., 2^b - 1} with clipping (the winsorization of
// Section 4.3: "clipping the inputs to a fixed number of bits b ... so that
// large values are truncated to 2^b - 1").
//
// Decode accepts *fractional* codewords because the server reconstructs
// sum_j 2^j * m_j from estimated bit means m_j, which is a real number in
// codeword space.

#ifndef BITPUSH_CORE_FIXED_POINT_H_
#define BITPUSH_CORE_FIXED_POINT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace bitpush {

// Maximum supported bit width. 52 keeps exact integer round-trips within
// double precision, which the estimators rely on.
inline constexpr int kMaxBits = 52;

class FixedPointCodec {
 public:
  // Maps [low, high] linearly onto {0, ..., 2^bits - 1}. Requires
  // 1 <= bits <= kMaxBits and low < high.
  FixedPointCodec(int bits, double low, double high);

  // Codec for values that are already non-negative integers below 2^bits
  // (unit scale, zero offset) — e.g. ages, counters, clipped telemetry.
  static FixedPointCodec Integer(int bits);

  // Encodes x: clip to [low, high], scale, round to nearest codeword, ties
  // away from zero as std::llround rounds. The rounding is the exact
  // llround emulation of the AVX2 kernel (kernels/kernel_avx2.cc): the
  // scaled value s lies in [0, 2^52], so s + 2^52 holds s rounded to even
  // in its mantissa, and a tie that went down goes up. A NaN encodes to
  // max_codeword(), as llround's out-of-range result clamps.
  uint64_t Encode(double x) const {
    const double scaled = (std::clamp(x, low_, high_) - low_) * scale_;
    constexpr double kTwo52 = 0x1p52;
    uint64_t codeword = std::bit_cast<uint64_t>(scaled + kTwo52) -
                        std::bit_cast<uint64_t>(kTwo52);
    if (scaled - static_cast<double>(codeword) == 0.5) ++codeword;
    return std::min(codeword, max_codeword_);
  }

  // Encodes a whole dataset.
  std::vector<uint64_t> EncodeAll(const std::vector<double>& values) const;

  // Decodes a (possibly fractional) codeword back to the value domain.
  double Decode(double codeword) const;

  // Value of bit j (0 = least significant) of codeword v; j in [0, bits).
  static int Bit(uint64_t v, int j) {
    BITPUSH_CHECK_GE(j, 0);
    BITPUSH_CHECK_LT(j, 64);
    return static_cast<int>((v >> j) & 1u);
  }

  int bits() const { return bits_; }
  double low() const { return low_; }
  double high() const { return high_; }
  // Largest codeword, 2^bits - 1.
  uint64_t max_codeword() const { return max_codeword_; }
  // Value-domain width of one codeword step.
  double resolution() const { return 1.0 / scale_; }

 private:
  int bits_;
  double low_;
  double high_;
  uint64_t max_codeword_;
  double scale_;  // codewords per value unit: max_codeword / (high - low)
};

}  // namespace bitpush

#endif  // BITPUSH_CORE_FIXED_POINT_H_
