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

#include <cstdint>
#include <vector>

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

  // Encodes x: clip to [low, high], scale, round to nearest codeword.
  uint64_t Encode(double x) const;

  // Encodes a whole dataset.
  std::vector<uint64_t> EncodeAll(const std::vector<double>& values) const;

  // Decodes a (possibly fractional) codeword back to the value domain.
  double Decode(double codeword) const;

  // Value of bit j (0 = least significant) of codeword v; j in [0, bits).
  static int Bit(uint64_t v, int j);

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
