// Simulated secure aggregation (Section 3.3): "the server knows the sum of
// the input values, without revealing anything further about the inputs of
// individual clients".
//
// Clients add pairwise-cancelling additive masks over Z_{2^64} before
// submitting; the server observes only masked values, which are
// individually uniform, but their modular sum equals the true sum. If any
// expected contributor drops out, the masks no longer cancel and the sum is
// unrecoverable — the same failure mode that forces real secure-aggregation
// deployments to batch a committed cohort (Section 1.1 contrasts this with
// bit-pushing's tolerance of asynchronous updates).

#ifndef BITPUSH_FEDERATED_SECURE_AGG_H_
#define BITPUSH_FEDERATED_SECURE_AGG_H_

#include <cstdint>
#include <vector>

#include "rng/rng.h"

namespace bitpush {

class SecureAggregator {
 public:
  // Sets up masks for `expected_contributors` clients. Masks sum to zero
  // modulo 2^64.
  SecureAggregator(int64_t expected_contributors, Rng& rng);

  // Client-side, for contributor slots [first_slot, first_slot + count):
  // out[i] = values[i] + mask_{first_slot + i} (mod 2^64), applied by the
  // kernel layer's word-add (src/kernels/). Each slot may be used once.
  void MaskBatch(const uint64_t* values, int64_t count, int64_t first_slot,
                 uint64_t* out);

  // Server-side: records `count` masked submissions in order.
  void SubmitBatch(const uint64_t* masked_values, int64_t count);

  // True once every expected contributor has submitted.
  bool complete() const;
  int64_t submissions() const {
    return static_cast<int64_t>(received_.size());
  }

  // The aggregate, valid only when complete(); the caller must check.
  // Returns the exact sum of the unmasked values (mod 2^64).
  uint64_t Sum() const;

  // The server's raw view, exposed for tests that verify individual values
  // are not recoverable.
  const std::vector<uint64_t>& received() const { return received_; }

 private:
  std::vector<uint64_t> masks_;
  std::vector<bool> mask_used_;
  std::vector<uint64_t> received_;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_SECURE_AGG_H_
