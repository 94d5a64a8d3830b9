// Round-latency model (Section 4.3, "Latency and number of rounds"):
// devices become available to the coordinator as a Poisson process; a round
// is assigned when enough *eligible* devices have checked in, so selective
// queries (low eligibility rates) wait longer, and a two-round protocol
// pays the collection wait twice.

#ifndef BITPUSH_FEDERATED_LATENCY_H_
#define BITPUSH_FEDERATED_LATENCY_H_

#include <cstdint>

#include "rng/rng.h"

namespace bitpush {

struct LatencyModel {
  // Device check-ins per minute across the whole population.
  double checkins_per_minute = 1000.0;
  // Probability a checking-in device satisfies the query's eligibility
  // predicate (1 = unrestricted query).
  double eligibility_rate = 1.0;

  friend bool operator==(const LatencyModel&, const LatencyModel&) = default;
};

// Expected minutes to gather `cohort_size` eligible devices.
double ExpectedCollectionMinutes(const LatencyModel& model,
                                 int64_t cohort_size);

// One stochastic draw of the collection time (sum of exponential
// inter-arrival gaps thinned by eligibility), for simulations.
double SampleCollectionMinutes(const LatencyModel& model,
                               int64_t cohort_size, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_LATENCY_H_
