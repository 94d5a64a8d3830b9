#include "federated/latency.h"

#include "rng/distributions.h"
#include "util/check.h"

namespace bitpush {
namespace {

void ValidateModel(const LatencyModel& model) {
  BITPUSH_CHECK_GT(model.checkins_per_minute, 0.0);
  BITPUSH_CHECK_GT(model.eligibility_rate, 0.0);
  BITPUSH_CHECK_LE(model.eligibility_rate, 1.0);
}

}  // namespace

double ExpectedCollectionMinutes(const LatencyModel& model,
                                 int64_t cohort_size) {
  ValidateModel(model);
  BITPUSH_CHECK_GE(cohort_size, 0);
  // Eligible check-ins form a thinned Poisson process with rate
  // checkins_per_minute * eligibility_rate.
  return static_cast<double>(cohort_size) /
         (model.checkins_per_minute * model.eligibility_rate);
}

double SampleCollectionMinutes(const LatencyModel& model,
                               int64_t cohort_size, Rng& rng) {
  ValidateModel(model);
  BITPUSH_CHECK_GE(cohort_size, 0);
  const double rate = model.checkins_per_minute * model.eligibility_rate;
  double minutes = 0.0;
  for (int64_t i = 0; i < cohort_size; ++i) {
    minutes += SampleExponential(rng, 1.0 / rate);
  }
  return minutes;
}

}  // namespace bitpush
