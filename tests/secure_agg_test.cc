#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "federated/secure_agg.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

// Masks contributor slot `slot` alone, as a batch of one.
uint64_t MaskSlot(SecureAggregator& aggregator, int64_t slot,
                  uint64_t value) {
  uint64_t masked = 0;
  aggregator.MaskBatch(&value, 1, slot, &masked);
  return masked;
}

void SubmitOne(SecureAggregator& aggregator, uint64_t masked) {
  aggregator.SubmitBatch(&masked, 1);
}

TEST(SecureAggregatorTest, SumEqualsTrueSum) {
  Rng rng(1);
  const std::vector<uint64_t> values = {3, 0, 1, 1, 0, 7};
  const int64_t n = static_cast<int64_t>(values.size());
  SecureAggregator aggregator(n, rng);
  uint64_t expected = 0;
  for (const uint64_t value : values) expected += value;
  std::vector<uint64_t> masked(values.size());
  aggregator.MaskBatch(values.data(), n, /*first_slot=*/0, masked.data());
  aggregator.SubmitBatch(masked.data(), n);
  ASSERT_TRUE(aggregator.complete());
  EXPECT_EQ(aggregator.Sum(), expected);
}

TEST(SecureAggregatorTest, MaskedValuesHideIndividualBits) {
  // The server's view of a 0-bit and a 1-bit must be indistinguishable in
  // practice: masked values are full-range, not 0/1.
  Rng rng(2);
  SecureAggregator aggregator(100, rng);
  std::set<uint64_t> seen;
  int tiny = 0;
  for (int64_t i = 0; i < 100; ++i) {
    const uint64_t masked =
        MaskSlot(aggregator, i, static_cast<uint64_t>(i % 2));
    SubmitOne(aggregator, masked);
    seen.insert(masked);
    if (masked <= 1) ++tiny;
  }
  EXPECT_EQ(seen.size(), 100u);  // all distinct
  EXPECT_LE(tiny, 1);            // masked values are not raw bits
  EXPECT_EQ(aggregator.Sum(), 50u);
}

TEST(SecureAggregatorTest, SingleContributor) {
  // With one contributor the mask must be zero (sum of masks is zero), so
  // the sum is exact.
  Rng rng(3);
  SecureAggregator aggregator(1, rng);
  SubmitOne(aggregator, MaskSlot(aggregator, 0, 42));
  EXPECT_EQ(aggregator.Sum(), 42u);
}

TEST(SecureAggregatorTest, DropoutPreventsRecovery) {
  Rng rng(4);
  SecureAggregator aggregator(3, rng);
  SubmitOne(aggregator, MaskSlot(aggregator, 0, 1));
  SubmitOne(aggregator, MaskSlot(aggregator, 1, 1));
  // Third client drops out.
  EXPECT_FALSE(aggregator.complete());
  EXPECT_DEATH(aggregator.Sum(), "dropouts prevent mask cancellation");
}

TEST(SecureAggregatorTest, PartialSumIsGarbageNotPlaintext) {
  // Even the running sum of a strict subset stays masked: it should not
  // equal the plaintext partial sum (overwhelmingly unlikely).
  Rng rng(5);
  SecureAggregator aggregator(4, rng);
  uint64_t masked_partial = 0;
  masked_partial += MaskSlot(aggregator, 0, 2);
  masked_partial += MaskSlot(aggregator, 1, 2);
  EXPECT_NE(masked_partial, 4u);
}

TEST(SecureAggregatorTest, LargeCohortSumModulo) {
  // Masked and submitted in uneven chunks, as a round's slot loop does.
  Rng rng(6);
  const int64_t n = 5000;
  SecureAggregator aggregator(n, rng);
  const std::vector<uint64_t> ones(static_cast<size_t>(n), 1);
  std::vector<uint64_t> masked(static_cast<size_t>(n));
  for (int64_t first = 0; first < n; first += 777) {
    const int64_t count = std::min<int64_t>(777, n - first);
    aggregator.MaskBatch(ones.data() + first, count, first,
                         masked.data() + first);
    aggregator.SubmitBatch(masked.data() + first, count);
  }
  EXPECT_EQ(aggregator.Sum(), static_cast<uint64_t>(n));
}

TEST(SecureAggregatorDeathTest, MaskSlotReuseAborts) {
  Rng rng(7);
  SecureAggregator aggregator(2, rng);
  MaskSlot(aggregator, 0, 1);
  EXPECT_DEATH(MaskSlot(aggregator, 0, 1), "mask slot reused");
}

TEST(SecureAggregatorDeathTest, TooManySubmissionsAbort) {
  Rng rng(8);
  SecureAggregator aggregator(1, rng);
  SubmitOne(aggregator, MaskSlot(aggregator, 0, 1));
  EXPECT_DEATH(SubmitOne(aggregator, 0), "too many submissions");
}

TEST(SecureAggregatorDeathTest, OutOfRangeSlotAborts) {
  Rng rng(9);
  SecureAggregator aggregator(2, rng);
  EXPECT_DEATH(MaskSlot(aggregator, 2, 1), "BITPUSH_CHECK failed");
  EXPECT_DEATH(MaskSlot(aggregator, -1, 1), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
