#include "rng/rng.h"

#include "util/check.h"

namespace bitpush {
namespace {

// SplitMix64 step, used only for seeding.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : state_) word = SplitMix64(&sm);
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
