#include <vector>

#include <gtest/gtest.h>

#include "data/census.h"
#include "federated/campaign.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

CampaignQuery MakeQuery(const std::string& name, int64_t value_id,
                        int64_t cadence) {
  CampaignQuery query;
  query.name = name;
  query.value_id = value_id;
  query.cadence_ticks = cadence;
  query.query.adaptive.bits = 7;
  return query;
}

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : rng_(1) {
    const Dataset ages = CensusAges(3000, rng_);
    population_ = MakePopulation(ages.values(), ClientConfig{});
    truth_ = ages.truth().mean;
    codec_.push_back(FixedPointCodec::Integer(7));
  }

  Rng rng_;
  std::vector<Client> population_;
  double truth_ = 0.0;
  std::vector<FixedPointCodec> codec_;
};

TEST_F(CampaignTest, RunsOnCadence) {
  MeasurementCampaign campaign(
      {MakeQuery("daily", 0, 1), MakeQuery("weekly", 1, 7)}, nullptr);
  const std::vector<const std::vector<Client>*> populations = {
      &population_, &population_};
  const std::vector<FixedPointCodec> codecs = {codec_[0], codec_[0]};

  int daily_runs = 0;
  int weekly_runs = 0;
  for (int64_t tick = 0; tick < 14; ++tick) {
    for (const CampaignTickResult& result :
         campaign.RunTick(tick, populations, codecs, rng_)) {
      if (result.query_name == "daily") ++daily_runs;
      if (result.query_name == "weekly") ++weekly_runs;
      EXPECT_EQ(result.status, CampaignTickResult::Status::kRan);
      EXPECT_NEAR(result.estimate, truth_, 0.2 * truth_);
    }
  }
  EXPECT_EQ(daily_runs, 14);
  EXPECT_EQ(weekly_runs, 2);  // ticks 0 and 7
  EXPECT_EQ(campaign.runs(), 16);
  EXPECT_EQ(campaign.skips(), 0);
}

TEST_F(CampaignTest, SharedBudgetExhaustsPerValue) {
  // One bit per value per client: the second tick of the same metric
  // collects nothing and is reported as a budget skip.
  PrivacyMeter meter{MeterPolicy{}};
  MeasurementCampaign campaign({MakeQuery("metric", 0, 1)}, &meter);
  const std::vector<const std::vector<Client>*> populations = {
      &population_};

  const auto first = campaign.RunTick(0, populations, codec_, rng_);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].status, CampaignTickResult::Status::kRan);

  const auto second = campaign.RunTick(1, populations, codec_, rng_);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].status, CampaignTickResult::Status::kSkippedBudget);
  EXPECT_EQ(second[0].reports, 0);
  EXPECT_EQ(campaign.skips(), 1);
}

TEST_F(CampaignTest, DistinctValueIdsDrawSeparateBudgets) {
  MeterPolicy policy;
  policy.max_bits_per_client = 10;
  PrivacyMeter meter(policy);
  MeasurementCampaign campaign(
      {MakeQuery("a", 0, 1), MakeQuery("b", 1, 1)}, &meter);
  const std::vector<const std::vector<Client>*> populations = {
      &population_, &population_};
  const std::vector<FixedPointCodec> codecs = {codec_[0], codec_[0]};
  const auto results = campaign.RunTick(0, populations, codecs, rng_);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, CampaignTickResult::Status::kRan);
  EXPECT_EQ(results[1].status, CampaignTickResult::Status::kRan);
}

TEST_F(CampaignTest, CohortMinimumSkips) {
  CampaignQuery query = MakeQuery("selective", 0, 1);
  query.query.cohort.min_cohort_size = 100000;  // unreachable
  MeasurementCampaign campaign({query}, nullptr);
  const std::vector<const std::vector<Client>*> populations = {
      &population_};
  const auto results = campaign.RunTick(0, populations, codec_, rng_);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CampaignTickResult::Status::kSkippedCohort);
}

TEST_F(CampaignTest, HistoryAccumulates) {
  MeasurementCampaign campaign({MakeQuery("m", 0, 1)}, nullptr);
  const std::vector<const std::vector<Client>*> populations = {
      &population_};
  campaign.RunTick(0, populations, codec_, rng_);
  campaign.RunTick(1, populations, codec_, rng_);
  EXPECT_EQ(campaign.history().size(), 2u);
  EXPECT_EQ(campaign.history()[1].tick, 1);
}

TEST(CampaignDeathTest, InvalidConfigurationAborts) {
  EXPECT_DEATH(MeasurementCampaign({}, nullptr), "BITPUSH_CHECK failed");
  CampaignQuery a = MakeQuery("dup", 0, 1);
  CampaignQuery b = MakeQuery("dup", 1, 1);
  EXPECT_DEATH(MeasurementCampaign({a, b}, nullptr),
               "duplicate query name");
  CampaignQuery bad_cadence = MakeQuery("x", 0, 0);
  EXPECT_DEATH(MeasurementCampaign({bad_cadence}, nullptr),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
