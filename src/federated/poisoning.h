// Adversarial client behaviours (Section 5, "Robustness to poisoning
// attacks"): a malicious client cannot bias the mean much by flipping its
// one assigned bit, but under *local* randomness it can elect to always
// report the most significant bit as 1, deterministically pushing the
// estimate upward. Central randomness removes the bit-choice lever.

#ifndef BITPUSH_FEDERATED_POISONING_H_
#define BITPUSH_FEDERATED_POISONING_H_

#include <cstdint>

namespace bitpush {

enum class AdversaryMode : uint8_t {
  kHonest,
  // Reports 1 regardless of the assigned bit's true value (works under
  // both randomness modes, but is weighted by the assigned bit).
  kAlwaysOne,
  // Under local randomness: pretends it sampled the top bit and reports 1
  // there. Under central randomness the client cannot choose the index, so
  // this degrades to kAlwaysOne on the assigned bit.
  kTopBitOne,
  // Reports the complement of the true bit.
  kFlipBit,
  // Claims an out-of-protocol bit index (only expressible under local
  // randomness); the server must reject such reports as malformed.
  kGarbageIndex,
};

// Applies the adversary's policy. `assigned_bit_index` is the server's
// choice; `true_bit` the honest value of that bit. Returns the bit value the
// adversary reports and sets `*reported_index` to the index it claims
// (differs from the assignment only for kTopBitOne under local randomness).
int PoisonedBit(AdversaryMode mode, bool local_randomness, int top_bit_index,
                int assigned_bit_index, int true_bit, int* reported_index);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_POISONING_H_
