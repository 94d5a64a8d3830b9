// Deterministic pseudo-random number generation.
//
// All randomized components of the library draw from an explicit Rng so
// every experiment is reproducible from a 64-bit seed. The generator is
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, a standard
// combination with good statistical quality and a tiny state. It is not
// cryptographically secure; the library simulates protocols, it does not
// implement production client-side noise.
//
// The per-draw calls are defined inline below: a collection round makes
// several per report, and a single-valued client's value draw is a
// NextBelow(1).

#ifndef BITPUSH_RNG_RNG_H_
#define BITPUSH_RNG_RNG_H_

#include <cstdint>

namespace bitpush {

class Rng {
 public:
  // Seeds the generator. Any seed (including 0) is valid; SplitMix64
  // expansion guarantees a non-degenerate internal state.
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Returns the next 64 uniformly random bits.
  uint64_t NextUint64();

  // Returns a uniform double in [0, 1) with 53 random mantissa bits.
  double NextDouble();

  // Returns a uniform integer in [0, bound). `bound` must be positive.
  // Uses rejection sampling, so the result is exactly uniform. A
  // power-of-two bound divides 2^64, so no draw is ever rejected: it costs
  // one draw and a mask, and returns what the general path would.
  uint64_t NextBelow(uint64_t bound);

  // Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Returns a single uniformly random bit as an int in {0, 1}.
  int NextBit();

  // Derives an independent generator. Forked streams do not overlap in any
  // realistic use because the child is re-seeded through SplitMix64 from
  // fresh output of the parent.
  Rng Fork();

  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static uint64_t RotateLeft(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // NextBelow for a bound that is not a power of two (or is 0, which
  // CHECK-fails).
  uint64_t NextBelowRejecting(uint64_t bound);

  uint64_t state_[4];
};

inline uint64_t Rng::NextUint64() {
  const uint64_t result = RotateLeft(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotateLeft(state_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // Top 53 bits give a uniform dyadic rational in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

inline uint64_t Rng::NextBelow(uint64_t bound) {
  if (bound != 0 && (bound & (bound - 1)) == 0) {
    return NextUint64() & (bound - 1);
  }
  return NextBelowRejecting(bound);
}

inline bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace bitpush

#endif  // BITPUSH_RNG_RNG_H_
