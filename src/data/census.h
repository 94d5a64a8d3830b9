// Census-age workload.
//
// The paper's human-generated data is "the distribution of people's ages
// from publicly-available US Census data" (the Census-Income KDD dataset).
// The raw dataset is not redistributable inside this repository, so we embed
// an age histogram with the same support (0..90, with 90 standing for 90+)
// and the same demographic shape (a 1990s-style population pyramid: heavy
// mass in childhood and working ages, a baby-boom bulge around 25-40, and a
// decaying old-age tail; mean ~= 34, b_max = 7 bits). Figures 2a-c and 3a-b
// depend only on those properties of the distribution. See DESIGN.md
// ("Substitutions").

#ifndef BITPUSH_DATA_CENSUS_H_
#define BITPUSH_DATA_CENSUS_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "rng/rng.h"

namespace bitpush {

// Maximum age in the embedded histogram (ages are integers in [0, 90]).
inline constexpr int kCensusMaxAge = 90;

// Returns the embedded relative frequency of each age 0..kCensusMaxAge.
// The weights are positive and need not be normalized.
const std::vector<double>& CensusAgeWeights();

// Draws n ages i.i.d. from the embedded age histogram.
Dataset CensusAges(int64_t n, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_DATA_CENSUS_H_
