#include "core/bit_pushing.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "batch/batch.h"
#include "core/fixed_point.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "rng/qmc.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

BitHistogram::BitHistogram(int bits)
    : totals(static_cast<size_t>(bits), 0),
      ones(static_cast<size_t>(bits), 0) {
  BITPUSH_CHECK_GE(bits, 1);
}

void BitHistogram::Add(int bit_index, int reported_bit) {
  BITPUSH_CHECK_GE(bit_index, 0);
  BITPUSH_CHECK_LT(bit_index, bits());
  BITPUSH_CHECK(reported_bit == 0 || reported_bit == 1);
  ++totals[static_cast<size_t>(bit_index)];
  ones[static_cast<size_t>(bit_index)] += reported_bit;
}

void BitHistogram::Accumulate(int bit_index, int64_t reports,
                              int64_t reported_ones) {
  BITPUSH_CHECK_GE(bit_index, 0);
  BITPUSH_CHECK_LT(bit_index, bits());
  BITPUSH_CHECK_GE(reported_ones, 0);
  BITPUSH_CHECK_GE(reports, reported_ones);
  totals[static_cast<size_t>(bit_index)] += reports;
  ones[static_cast<size_t>(bit_index)] += reported_ones;
}

void BitHistogram::Merge(const BitHistogram& other) {
  if (other.totals.empty()) return;
  if (totals.empty()) {
    *this = other;
    return;
  }
  BITPUSH_CHECK_EQ(bits(), other.bits());
  const int64_t n = static_cast<int64_t>(totals.size());
  const kernels::KernelOps& ops = kernels::ActiveKernel();
  ops.add_words(reinterpret_cast<uint64_t*>(totals.data()),
                reinterpret_cast<const uint64_t*>(other.totals.data()), n);
  ops.add_words(reinterpret_cast<uint64_t*>(ones.data()),
                reinterpret_cast<const uint64_t*>(other.ones.data()), n);
}

int64_t BitHistogram::TotalReports() const {
  int64_t sum = 0;
  for (const int64_t t : totals) sum += t;
  return sum;
}

void EncodeBitHistogram(const BitHistogram& histogram,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64Vector(histogram.totals, out);
  bytes::PutInt64Vector(histogram.ones, out);
}

bool DecodeBitHistogram(std::span<const uint8_t> buffer, size_t* offset,
                        BitHistogram* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  BitHistogram histogram;
  if (!bytes::GetInt64Vector(buffer, &cursor, &histogram.totals) ||
      !bytes::GetInt64Vector(buffer, &cursor, &histogram.ones) ||
      histogram.totals.size() != histogram.ones.size()) {
    return false;
  }
  for (size_t j = 0; j < histogram.totals.size(); ++j) {
    if (histogram.ones[j] < 0 || histogram.ones[j] > histogram.totals[j]) {
      return false;
    }
  }
  *out = std::move(histogram);
  *offset = cursor;
  return true;
}

std::vector<double> BitHistogram::UnbiasedMeans(
    const RandomizedResponse& rr, std::vector<bool>* observed) const {
  std::vector<double> means(totals.size(), 0.0);
  if (observed != nullptr) observed->assign(totals.size(), false);
  for (size_t j = 0; j < totals.size(); ++j) {
    if (totals[j] == 0) continue;
    if (observed != nullptr) (*observed)[j] = true;
    const double raw_mean = static_cast<double>(ones[j]) /
                            static_cast<double>(totals[j]);
    means[j] = rr.Unbias(raw_mean);
  }
  return means;
}

double RecombineBitMeans(const std::vector<double>& means) {
  double estimate = 0.0;
  for (size_t j = 0; j < means.size(); ++j) {
    estimate += std::exp2(static_cast<double>(j)) * means[j];
  }
  return estimate;
}

double RecombineBitMeans(const std::vector<double>& means,
                         const std::vector<bool>& keep) {
  BITPUSH_CHECK_EQ(means.size(), keep.size());
  double estimate = 0.0;
  for (size_t j = 0; j < means.size(); ++j) {
    if (keep[j]) estimate += std::exp2(static_cast<double>(j)) * means[j];
  }
  return estimate;
}

int MakeBitReport(uint64_t codeword, int bit_index,
                  const RandomizedResponse& rr, Rng& rng) {
  return rr.Apply(FixedPointCodec::Bit(codeword, bit_index), rng);
}

double PluginVariance(const BitHistogram& histogram,
                      const std::vector<double>& means,
                      const RandomizedResponse& rr) {
  BITPUSH_CHECK_EQ(static_cast<size_t>(histogram.bits()), means.size());
  const double rr_var = rr.ReportVariance();
  double variance = 0.0;
  for (int j = 0; j < histogram.bits(); ++j) {
    const int64_t count = histogram.totals[static_cast<size_t>(j)];
    if (count == 0) continue;
    const double m = std::clamp(means[static_cast<size_t>(j)], 0.0, 1.0);
    const double per_report = m * (1.0 - m) + rr_var;
    variance += std::exp2(2.0 * j) * per_report / static_cast<double>(count);
  }
  return variance;
}

BitPushingResult RunBasicBitPushing(const std::vector<uint64_t>& codewords,
                                    const BitPushingConfig& config,
                                    Rng& rng) {
  const int bits = static_cast<int>(config.probabilities.size());
  BITPUSH_CHECK_GE(bits, 1);
  BITPUSH_CHECK_GE(config.bits_per_client, 1);
  BITPUSH_CHECK(!codewords.empty());

  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(config.epsilon);
  const int64_t n = static_cast<int64_t>(codewords.size());

  static obs::Histogram* aggregation_seconds =
      obs::Registry::Default().GetHistogram(
          "bitpush_bit_aggregation_seconds",
          "Wall-clock time of one RunBasicBitPushing aggregation.",
          obs::LatencySecondsBounds(), obs::Determinism::kVolatile);
  const obs::ScopedTimer timer(aggregation_seconds);

  BitPushingResult result;
  // Each pass assigns every client one bit; Corollary 3.2's b_send > 1 is
  // realized as independent passes. Each pass runs columnarly: split the
  // codewords into bit planes plus selection masks, flip the assigned bits
  // with one bulk Bernoulli mask, and tally by popcount (src/batch/).
  // PerturbBatch draws its flip mask slot-by-slot from the same stream the
  // per-report rr.Apply path consumed, so the resulting histogram is
  // bit-identical to the pre-columnar loop's — with or without DP.
  for (int pass = 0; pass < config.bits_per_client; ++pass) {
    const std::vector<int> assignment =
        config.central_randomness
            ? AssignBitsCentral(n, config.probabilities, rng)
            : AssignBitsLocal(n, config.probabilities, rng);
    ReportBatch batch = BuildReportBatch(codewords, assignment, bits);
    PerturbBatch(&batch, rr, rng);
    result.histogram.Merge(AggregateBatch(batch));
  }

  result.bit_means = result.histogram.UnbiasedMeans(rr, &result.observed);
  result.estimate_codeword = RecombineBitMeans(result.bit_means);
  result.variance_bound = PluginVariance(result.histogram, result.bit_means,
                                         rr);
  return result;
}

}  // namespace bitpush
