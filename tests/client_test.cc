#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "federated/client.h"
#include "rng/rng.h"
#include "stats/welford.h"

namespace bitpush {
namespace {

const FixedPointCodec& Codec8() {
  static const FixedPointCodec& codec =
      *new FixedPointCodec(FixedPointCodec::Integer(8));
  return codec;
}

TEST(ClientTest, SingleValueSelection) {
  const Client client(1, {42.0}, ClientConfig{});
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(SelectValue(client.fields(), rng), 42.0);
  }
}

TEST(ClientTest, SampleOnePolicyCoversAllValues) {
  ClientConfig config;
  config.value_policy = ValuePolicy::kSampleOne;
  const Client client(1, {1.0, 2.0, 3.0}, config);
  Rng rng(2);
  Welford acc;
  for (int i = 0; i < 30000; ++i) acc.Add(SelectValue(client.fields(), rng));
  EXPECT_NEAR(acc.mean(), 2.0, 0.05);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(ClientTest, LocalMeanPolicy) {
  ClientConfig config;
  config.value_policy = ValuePolicy::kLocalMean;
  const Client client(1, {1.0, 2.0, 6.0}, config);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(SelectValue(client.fields(), rng), 3.0);
}

TEST(ClientTest, FirstValuePolicy) {
  ClientConfig config;
  config.value_policy = ValuePolicy::kFirstValue;
  const Client client(1, {9.0, 1.0}, config);
  Rng rng(4);
  EXPECT_DOUBLE_EQ(SelectValue(client.fields(), rng), 9.0);
}

TEST(ClientTest, HonestReportMatchesTrueBit) {
  const Client client(5, {42.0}, ClientConfig{});  // 42 = 0b101010
  Rng rng(5);
  for (int j = 0; j < 8; ++j) {
    const BitRequest request{1, 0, j, 0.0};
    const std::optional<BitReport> report = client.HandleRequest(
        request, Codec8(), /*local_randomness=*/false, nullptr, rng);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->client_id, 5);
    EXPECT_EQ(report->bit_index, j);
    EXPECT_EQ(report->bit, (42 >> j) & 1);
  }
}

TEST(ClientTest, DropoutRateIsRespected) {
  ClientConfig config;
  config.dropout_probability = 0.3;
  const Client client(1, {10.0}, config);
  Rng rng(6);
  int responded = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const BitRequest request{1, 0, 0, 0.0};
    if (client.HandleRequest(request, Codec8(), false, nullptr, rng)) {
      ++responded;
    }
  }
  EXPECT_NEAR(static_cast<double>(responded) / trials, 0.7, 0.02);
}

TEST(ClientTest, MeterDenialSuppressesReport) {
  PrivacyMeter meter{MeterPolicy{}};  // 1 bit per value
  const Client client(1, {10.0}, ClientConfig{});
  Rng rng(7);
  const BitRequest request{1, 77, 0, 0.0};
  EXPECT_TRUE(
      client.HandleRequest(request, Codec8(), false, &meter, rng));
  // Second request about the same value id is refused by the meter.
  EXPECT_FALSE(
      client.HandleRequest(request, Codec8(), false, &meter, rng));
  EXPECT_EQ(meter.total_bits(), 1);
  EXPECT_EQ(meter.denied_charges(), 1);
}

TEST(ClientTest, MeterChargesEpsilon) {
  MeterPolicy policy;
  policy.max_bits_per_value = 10;
  PrivacyMeter meter(policy);
  const Client client(3, {10.0}, ClientConfig{});
  Rng rng(8);
  const BitRequest request{1, 0, 0, 1.5};
  client.HandleRequest(request, Codec8(), false, &meter, rng);
  EXPECT_DOUBLE_EQ(meter.ClientEpsilon(3), 1.5);
}

TEST(ClientTest, RandomizedResponseIsAppliedAtRequestedEpsilon) {
  const Client client(1, {255.0}, ClientConfig{});  // all bits 1
  Rng rng(9);
  const double epsilon = 1.0;
  const RandomizedResponse rr(epsilon);
  int ones = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    const BitRequest request{1, 0, 0, epsilon};
    const std::optional<BitReport> report =
        client.HandleRequest(request, Codec8(), false, nullptr, rng);
    ASSERT_TRUE(report.has_value());
    ones += report->bit;
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, rr.truth_probability(),
              0.01);
}

TEST(ClientTest, AdversaryOverridesBit) {
  ClientConfig config;
  config.adversary = AdversaryMode::kFlipBit;
  const Client client(1, {0.0}, config);  // all bits 0
  Rng rng(10);
  const BitRequest request{1, 0, 3, 0.0};
  const std::optional<BitReport> report =
      client.HandleRequest(request, Codec8(), false, nullptr, rng);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->bit, 1);
}

TEST(ClientTest, TopBitAdversaryHijacksIndexOnlyUnderLocalRandomness) {
  ClientConfig config;
  config.adversary = AdversaryMode::kTopBitOne;
  const Client client(1, {0.0}, config);
  Rng rng(11);
  const BitRequest request{1, 0, 2, 0.0};
  const std::optional<BitReport> local = client.HandleRequest(
      request, Codec8(), /*local_randomness=*/true, nullptr, rng);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->bit_index, 7);  // claims the top bit
  EXPECT_EQ(local->bit, 1);
  const std::optional<BitReport> central = client.HandleRequest(
      request, Codec8(), /*local_randomness=*/false, nullptr, rng);
  ASSERT_TRUE(central.has_value());
  EXPECT_EQ(central->bit_index, 2);  // cannot choose under central
}

TEST(ClientTest, MakePopulationBuildsSingleValueClients) {
  const std::vector<Client> clients =
      MakePopulation({5.0, 6.0, 7.0}, ClientConfig{});
  ASSERT_EQ(clients.size(), 3u);
  EXPECT_EQ(clients[1].id(), 1);
  ASSERT_EQ(clients[2].values().size(), 1u);
  EXPECT_EQ(clients[2].values()[0], 7.0);
}

TEST(ClientDeathTest, InvalidConstructionAborts) {
  EXPECT_DEATH(Client(1, {}, ClientConfig{}), "BITPUSH_CHECK failed");
  ClientConfig config;
  config.dropout_probability = 1.5;
  EXPECT_DEATH(Client(1, {1.0}, config), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
