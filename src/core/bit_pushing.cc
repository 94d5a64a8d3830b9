#include "core/bit_pushing.h"

#include <algorithm>
#include <cmath>

#include "batch/batch.h"
#include "core/fixed_point.h"
#include "obs/metrics.h"
#include "rng/qmc.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

BitHistogram::BitHistogram(int bits)
    : total_(static_cast<size_t>(bits), 0),
      ones_(static_cast<size_t>(bits), 0) {
  BITPUSH_CHECK_GE(bits, 1);
}

void BitHistogram::Add(int bit_index, int reported_bit) {
  BITPUSH_CHECK_GE(bit_index, 0);
  BITPUSH_CHECK_LT(bit_index, bits());
  BITPUSH_CHECK(reported_bit == 0 || reported_bit == 1);
  ++total_[static_cast<size_t>(bit_index)];
  ones_[static_cast<size_t>(bit_index)] += reported_bit;
}

void BitHistogram::Accumulate(int bit_index, int64_t reports, int64_t ones) {
  BITPUSH_CHECK_GE(bit_index, 0);
  BITPUSH_CHECK_LT(bit_index, bits());
  BITPUSH_CHECK_GE(ones, 0);
  BITPUSH_CHECK_GE(reports, ones);
  total_[static_cast<size_t>(bit_index)] += reports;
  ones_[static_cast<size_t>(bit_index)] += ones;
}

void BitHistogram::Merge(const BitHistogram& other) {
  BITPUSH_CHECK_EQ(bits(), other.bits());
  for (size_t j = 0; j < total_.size(); ++j) {
    total_[j] += other.total_[j];
    ones_[j] += other.ones_[j];
  }
}

BitHistogram BitHistogram::FromCounts(std::vector<int64_t> totals,
                                      std::vector<int64_t> ones) {
  BITPUSH_CHECK_EQ(totals.size(), ones.size());
  for (size_t j = 0; j < totals.size(); ++j) {
    BITPUSH_CHECK_GE(ones[j], 0);
    BITPUSH_CHECK_GE(totals[j], ones[j]);
  }
  BitHistogram histogram;
  histogram.total_ = std::move(totals);
  histogram.ones_ = std::move(ones);
  return histogram;
}

int64_t BitHistogram::total(int bit_index) const {
  return total_[static_cast<size_t>(bit_index)];
}

int64_t BitHistogram::ones(int bit_index) const {
  return ones_[static_cast<size_t>(bit_index)];
}

int64_t BitHistogram::TotalReports() const {
  int64_t sum = 0;
  for (const int64_t t : total_) sum += t;
  return sum;
}

void EncodeBitHistogram(const BitHistogram& histogram,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64Vector(histogram.totals(), out);
  bytes::PutInt64Vector(histogram.one_counts(), out);
}

bool DecodeBitHistogram(std::span<const uint8_t> buffer, size_t* offset,
                        BitHistogram* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  std::vector<int64_t> totals;
  std::vector<int64_t> ones;
  if (!bytes::GetInt64Vector(buffer, &cursor, &totals) ||
      !bytes::GetInt64Vector(buffer, &cursor, &ones)) {
    return false;
  }
  if (totals.size() != ones.size()) return false;
  for (size_t j = 0; j < totals.size(); ++j) {
    if (ones[j] < 0 || totals[j] < ones[j]) return false;
  }
  *out = BitHistogram::FromCounts(std::move(totals), std::move(ones));
  *offset = cursor;
  return true;
}

std::vector<double> BitHistogram::UnbiasedMeans(
    const RandomizedResponse& rr, std::vector<bool>* observed) const {
  std::vector<double> means(total_.size(), 0.0);
  if (observed != nullptr) observed->assign(total_.size(), false);
  for (size_t j = 0; j < total_.size(); ++j) {
    if (total_[j] == 0) continue;
    if (observed != nullptr) (*observed)[j] = true;
    const double raw_mean = static_cast<double>(ones_[j]) /
                            static_cast<double>(total_[j]);
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
    const int64_t count = histogram.total(j);
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
  result.histogram = BitHistogram(bits);
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
    AggregateBatch(batch).AccumulateInto(&result.histogram);
  }

  result.bit_means = result.histogram.UnbiasedMeans(rr, &result.observed);
  result.estimate_codeword = RecombineBitMeans(result.bit_means);
  result.variance_bound = PluginVariance(result.histogram, result.bit_means,
                                         rr);
  return result;
}

}  // namespace bitpush
