#include "rng/rng.h"

#include "util/check.h"

namespace bitpush {

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion: word i is Mix(seed + i * 0x9e3779b97f4a7c15).
  uint64_t sm = seed;
  for (uint64_t& word : state_) {
    word = Mix(sm);
    sm += 0x9e3779b97f4a7c15ULL;
  }
}

uint64_t Rng::NextBelowRejecting(uint64_t bound) {
  BITPUSH_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound` that fits:
  // draws below (2^64 - bound) mod bound are rejected. That threshold is
  // below `bound`, so a draw at or above `bound` passes without it.
  while (true) {
    const uint64_t r = NextUint64();
    if (r >= bound || r >= -bound % bound) return r % bound;
  }
}

int Rng::NextBit() { return static_cast<int>(NextUint64() >> 63); }

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace bitpush
