#include <gtest/gtest.h>

#include "federated/latency.h"
#include "rng/rng.h"
#include "stats/welford.h"

namespace bitpush {
namespace {

TEST(LatencyTest, UnrestrictedQueryIsFast) {
  // Section 4.3: "the typical time to complete a round ... is a matter of
  // minutes". 10K devices at 5K check-ins/minute: ~2 minutes of
  // collection.
  LatencyModel model;
  model.checkins_per_minute = 5000.0;
  EXPECT_NEAR(ExpectedCollectionMinutes(model, 10000), 2.0, 1e-9);
}

TEST(LatencyTest, SelectiveQueriesWaitProportionallyLonger) {
  // "when applied to more selective queries ... it can take longer for a
  // sufficient number of eligible clients to make themselves available."
  LatencyModel broad;
  LatencyModel selective = broad;
  selective.eligibility_rate = 0.01;
  EXPECT_NEAR(ExpectedCollectionMinutes(selective, 10000) /
                  ExpectedCollectionMinutes(broad, 10000),
              100.0, 1e-9);
}

TEST(LatencyTest, SampledCollectionMatchesExpectation) {
  LatencyModel model;
  model.checkins_per_minute = 2000.0;
  model.eligibility_rate = 0.5;
  Rng rng(1);
  Welford acc;
  for (int trial = 0; trial < 300; ++trial) {
    acc.Add(SampleCollectionMinutes(model, 1000, rng));
  }
  EXPECT_NEAR(acc.mean(), ExpectedCollectionMinutes(model, 1000),
              0.05 * ExpectedCollectionMinutes(model, 1000));
}

TEST(LatencyTest, ZeroCohortIsInstant) {
  LatencyModel model;
  Rng rng(2);
  EXPECT_DOUBLE_EQ(ExpectedCollectionMinutes(model, 0), 0.0);
  EXPECT_DOUBLE_EQ(SampleCollectionMinutes(model, 0, rng), 0.0);
}

TEST(LatencyDeathTest, InvalidModelAborts) {
  LatencyModel bad_rate;
  bad_rate.checkins_per_minute = 0.0;
  EXPECT_DEATH(ExpectedCollectionMinutes(bad_rate, 10),
               "BITPUSH_CHECK failed");
  LatencyModel bad_eligibility;
  bad_eligibility.eligibility_rate = 0.0;
  EXPECT_DEATH(ExpectedCollectionMinutes(bad_eligibility, 10),
               "BITPUSH_CHECK failed");
  LatencyModel model;
}

}  // namespace
}  // namespace bitpush
