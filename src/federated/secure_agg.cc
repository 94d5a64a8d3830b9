#include "federated/secure_agg.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "util/check.h"

namespace bitpush {

SecureAggregator::SecureAggregator(int64_t expected_contributors, Rng& rng) {
  BITPUSH_CHECK_GE(expected_contributors, 1);
  masks_.resize(static_cast<size_t>(expected_contributors));
  mask_used_.assign(masks_.size(), false);
  uint64_t sum = 0;
  for (size_t i = 0; i + 1 < masks_.size(); ++i) {
    masks_[i] = rng.NextUint64();
    sum += masks_[i];
  }
  masks_.back() = ~sum + 1;  // two's-complement negation: total is 0 mod 2^64
  received_.reserve(masks_.size());
}

void SecureAggregator::MaskBatch(const uint64_t* values, int64_t count,
                                 int64_t first_slot, uint64_t* out) {
  BITPUSH_CHECK(values != nullptr);
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK_GE(count, 0);
  BITPUSH_CHECK_GE(first_slot, 0);
  BITPUSH_CHECK_LE(first_slot + count,
                   static_cast<int64_t>(masks_.size()));
  for (int64_t i = 0; i < count; ++i) {
    const size_t slot = static_cast<size_t>(first_slot + i);
    BITPUSH_CHECK(!mask_used_[slot]) << "mask slot reused";
    mask_used_[slot] = true;
  }
  std::copy(values, values + count, out);
  kernels::ActiveKernel().add_words(
      out, masks_.data() + first_slot, count);
}

void SecureAggregator::SubmitBatch(const uint64_t* masked_values,
                                   int64_t count) {
  BITPUSH_CHECK(masked_values != nullptr);
  BITPUSH_CHECK_GE(count, 0);
  BITPUSH_CHECK_LE(received_.size() + static_cast<size_t>(count),
                   masks_.size())
      << "too many submissions";
  received_.insert(received_.end(), masked_values, masked_values + count);
}

bool SecureAggregator::complete() const {
  return received_.size() == masks_.size();
}

uint64_t SecureAggregator::Sum() const {
  BITPUSH_CHECK(complete()) << "dropouts prevent mask cancellation";
  return kernels::ActiveKernel().reduce_add_words(
      received_.data(), static_cast<int64_t>(received_.size()));
}

}  // namespace bitpush
