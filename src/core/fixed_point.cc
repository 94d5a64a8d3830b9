#include "core/fixed_point.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace bitpush {

namespace {

obs::Histogram* EncodeAllHistogram() {
  static obs::Histogram* histogram = obs::Registry::Default().GetHistogram(
      "bitpush_encode_all_seconds",
      "Wall-clock time of FixedPointCodec::EncodeAll.",
      obs::LatencySecondsBounds(), obs::Determinism::kVolatile);
  return histogram;
}

}  // namespace

FixedPointCodec::FixedPointCodec(int bits, double low, double high)
    : bits_(bits), low_(low), high_(high) {
  BITPUSH_CHECK_GE(bits, 1);
  BITPUSH_CHECK_LE(bits, kMaxBits);
  BITPUSH_CHECK_LT(low, high);
  max_codeword_ = (uint64_t{1} << bits) - 1;
  scale_ = static_cast<double>(max_codeword_) / (high - low);
}

FixedPointCodec FixedPointCodec::Integer(int bits) {
  BITPUSH_CHECK_GE(bits, 1);
  BITPUSH_CHECK_LE(bits, kMaxBits);
  const double max_value =
      static_cast<double>((uint64_t{1} << bits) - 1);
  return FixedPointCodec(bits, 0.0, max_value);
}

std::vector<uint64_t> FixedPointCodec::EncodeAll(
    const std::vector<double>& values) const {
  const obs::ScopedTimer timer(EncodeAllHistogram());
  std::vector<uint64_t> encoded(values.size());
  // The kernel encode is bit-identical to Encode() by contract (the AVX2
  // leg emulates llround exactly; see kernels.h), so dispatching here is
  // invisible to everything downstream, including the golden campaign
  // snapshots.
  const kernels::EncodeParams params{low_, high_, scale_, max_codeword_};
  kernels::ActiveKernel().encode_codewords(
      values.data(), static_cast<int64_t>(values.size()), params,
      encoded.data());
  return encoded;
}

double FixedPointCodec::Decode(double codeword) const {
  return low_ + codeword / scale_;
}

}  // namespace bitpush
