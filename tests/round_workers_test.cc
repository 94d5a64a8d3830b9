// Round-worker invariance: the stage and apply steps of a collection round
// (federated/round_stages.h) run on 1, 2 or 4 threads, and nothing the
// round produces may depend on how many. Each case runs the same inputs at
// every budget and compares the round outcome, the ledger's canonical
// bytes, the journaled charge decisions and the RNG state. The rounds are
// large enough that a chunk splits over several threads. ctest -R
// RoundWorkers; the TSan stage of scripts/check.sh runs it.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/campaign.h"
#include "federated/client.h"
#include "federated/faults.h"
#include "federated/resilience.h"
#include "federated/round_stages.h"
#include "federated/server.h"
#include "federated/shard/merge.h"
#include "federated/shard/shard.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

constexpr int kBits = 8;
constexpr int64_t kValueId = 3;
// Enough slots for a full chunk on four threads and a second chunk.
constexpr int64_t kCohort =
    static_cast<int64_t>(RoundStages::kChunkSlots) + 5000;
constexpr int64_t kPool = 6000;
const int64_t kBudgets[] = {1, 2, 4};

// Journals every charge decision as bytes, in decision order.
class ByteJournal : public PrivacyMeter::Journal {
 public:
  void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                bool granted) override {
    bytes::PutInt64(client_id, &bytes_);
    bytes::PutInt64(value_id, &bytes_);
    bytes::PutDouble(epsilon, &bytes_);
    bytes_.push_back(granted ? 1 : 0);
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

struct Inputs {
  std::vector<Client> clients;
  std::vector<int64_t> cohort;
  RoundConfig config;
  MeterPolicy policy;
  FaultPlan faults;
  HealthTracker health;
};

// Everything a round leaves behind that must not depend on the budget.
struct Result {
  std::vector<std::vector<uint8_t>> outcomes;
  std::vector<uint8_t> ledger;
  std::vector<uint8_t> journal;
  int64_t denied = 0;
  double total_epsilon = 0.0;
  Rng rng{0};
};

std::vector<uint8_t> Encoded(const RoundOutcome& outcome) {
  std::vector<uint8_t> bytes;
  EncodeRoundOutcome(outcome, &bytes);
  return bytes;
}

// Runs two rounds (the first adds the ledger rows, the second updates
// them in place) at round-worker budget `workers`.
Result RunRounds(const Inputs& inputs, int64_t workers) {
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  const AggregationServer server(codec);
  PrivacyMeter meter(inputs.policy);
  ByteJournal journal;
  meter.set_journal(&journal);
  RoundConfig config = inputs.config;
  config.workers = workers;
  if (inputs.faults.enabled()) config.fault_plan = &inputs.faults;
  if (inputs.health.policy().enabled()) config.health = &inputs.health;
  Result result;
  Rng rng(77);
  for (int64_t round = 1; round <= 2; ++round) {
    config.round_id = round;
    result.outcomes.push_back(
        Encoded(server.RunRound(inputs.clients, inputs.cohort, config,
                                &meter, rng)));
  }
  meter.EncodeTo(&result.ledger);
  result.journal = journal.bytes();
  result.denied = meter.denied_charges();
  result.total_epsilon = meter.total_epsilon();
  result.rng = rng;
  return result;
}

void ExpectSameAtEveryBudget(const Inputs& inputs) {
  const Result inline_result = RunRounds(inputs, 1);
  for (const int64_t workers : kBudgets) {
    const Result result = RunRounds(inputs, workers);
    EXPECT_EQ(result.outcomes, inline_result.outcomes)
        << "round outcome at budget " << workers;
    EXPECT_EQ(result.ledger, inline_result.ledger)
        << "ledger at budget " << workers;
    EXPECT_EQ(result.journal, inline_result.journal)
        << "journal at budget " << workers;
    EXPECT_EQ(result.denied, inline_result.denied);
    EXPECT_EQ(result.total_epsilon, inline_result.total_epsilon);
    EXPECT_TRUE(result.rng == inline_result.rng)
        << "RNG state at budget " << workers;
  }
}

// kCohort + kPool clients, the cohort a shuffled permutation of the first
// kCohort indices and the backfill pool the rest.
Inputs MakeInputs(const ClientConfig& client_config, int values_per_client) {
  Inputs inputs;
  Rng rng(5);
  const int64_t n = kCohort + kPool;
  inputs.clients.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> values;
    for (int v = 0; v < values_per_client; ++v) {
      values.push_back(static_cast<double>(rng.NextBelow(256)));
    }
    inputs.clients.emplace_back(i, std::move(values), client_config);
  }
  for (int64_t i = 0; i < kCohort; ++i) inputs.cohort.push_back(i);
  for (int64_t i = kCohort - 1; i > 0; --i) {
    std::swap(inputs.cohort[static_cast<size_t>(i)],
              inputs.cohort[rng.NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
  inputs.config.probabilities = GeometricProbabilities(kBits, 0.5);
  inputs.config.value_id = kValueId;
  inputs.policy.max_bits_per_value = 8;
  return inputs;
}

TEST(RoundWorkersTest, FaultsRetriesHedgesBackfillAndBreaker) {
  ClientConfig flaky;
  flaky.dropout_probability = 0.05;
  Inputs inputs = MakeInputs(flaky, 1);
  FaultRates rates;
  rates.mid_round_dropout = 0.04;
  rates.straggler = 0.03;
  rates.corrupt_message = 0.03;
  rates.truncate_message = 0.03;
  rates.round_boundary_crash = 0.02;
  inputs.faults = FaultPlan(91, rates);
  // The pool leads with clients of the cohort's first slots, so that early
  // hedges go to clients with a grant still pending in their chunk.
  for (size_t slot = 0; slot < 2000; slot += 20) {
    inputs.config.backfill_pool.push_back(inputs.cohort[slot]);
  }
  for (int64_t i = kCohort; i < kCohort + kPool; ++i) {
    inputs.config.backfill_pool.push_back(i);
  }
  inputs.config.fault_policy.max_backfill_rounds = 2;
  inputs.config.fault_policy.report_deadline_minutes = 10.0;
  ResilienceConfig& res = inputs.config.resilience;
  res.seed = 17;
  res.retry.max_retries_per_client = 2;
  res.retry.max_retries_per_round = 200;
  res.hedge.enabled = true;
  res.hedge.trigger_budget_fraction = 0.5;
  res.hedge.max_hedges_per_round = 2000;
  // The retries' backoffs run the clock past the hedge trigger early in
  // the cohort pass, so that later slots get planned hedges.
  res.budget.minutes = 200.0;
  BreakerPolicy breaker;
  breaker.consecutive_failures_to_open = 1;
  breaker.cooldown_rounds = 3;
  inputs.health = HealthTracker(breaker);
  std::vector<int64_t> failed;
  for (int64_t id = 0; id < 400; ++id) failed.push_back(id * 7);
  inputs.health.ObserveRound(0, {}, failed);

  // Every mechanism fires in the two rounds (crashes strike round 1
  // only).
  const Result result = RunRounds(inputs, 1);
  RoundOutcome outcome;
  for (const std::vector<uint8_t>& bytes : result.outcomes) {
    RoundOutcome round;
    size_t offset = 0;
    ASSERT_TRUE(DecodeRoundOutcome(bytes, &offset, &round));
    outcome.faults.MergeFrom(round.faults);
    outcome.retry.MergeFrom(round.retry);
  }
  EXPECT_GT(outcome.faults.injected_dropouts, 0);
  EXPECT_GT(outcome.faults.injected_stragglers, 0);
  EXPECT_GT(outcome.faults.injected_crashes, 0);
  EXPECT_GT(outcome.retry.retries_scheduled, 0);
  EXPECT_GT(outcome.retry.retransmits_requested, 0);
  EXPECT_GT(outcome.retry.hedges_issued, 0);
  EXPECT_GT(outcome.retry.hedges_cancelled, 0);
  EXPECT_GT(outcome.retry.hedge_reports, 0);
  EXPECT_GT(outcome.faults.backfill_requests, 0);
  EXPECT_GT(outcome.retry.breaker_skips, 0);
  ExpectSameAtEveryBudget(inputs);
}

TEST(RoundWorkersTest, SecureAggregationWithRandomizedResponse) {
  Inputs inputs = MakeInputs(ClientConfig{}, 1);
  inputs.config.epsilon = 1.0;
  inputs.config.use_secure_aggregation = true;
  ExpectSameAtEveryBudget(inputs);
}

TEST(RoundWorkersTest, LocalRandomnessWithGarbageIndexAdversaries) {
  Inputs inputs = MakeInputs(ClientConfig{}, 1);
  ClientConfig adversary;
  adversary.adversary = AdversaryMode::kGarbageIndex;
  for (size_t i = 0; i < inputs.clients.size(); i += 50) {
    inputs.clients[i] = Client(static_cast<int64_t>(i), {1.0}, adversary);
  }
  inputs.config.epsilon = 1.0;
  inputs.config.central_randomness = false;
  const Result result = RunRounds(inputs, 1);
  RoundOutcome outcome;
  size_t offset = 0;
  ASSERT_TRUE(DecodeRoundOutcome(result.outcomes[0], &offset, &outcome));
  EXPECT_GT(outcome.malformed_reports, 0);
  ExpectSameAtEveryBudget(inputs);
}

TEST(RoundWorkersTest, MultiValuedClients) {
  ClientConfig config;
  config.value_policy = ValuePolicy::kSampleOne;
  Inputs inputs = MakeInputs(config, 3);
  ClientConfig mean;
  mean.value_policy = ValuePolicy::kLocalMean;
  for (size_t i = 0; i < inputs.clients.size(); i += 3) {
    inputs.clients[i] = Client(static_cast<int64_t>(i), {2.0, 4.0, 9.0}, mean);
  }
  ExpectSameAtEveryBudget(inputs);
}

TEST(RoundWorkersTest, RepeatedSlotsAreDeniedAtOneBitPerValue) {
  Inputs inputs = MakeInputs(ClientConfig{}, 1);
  inputs.policy.max_bits_per_value = 1;
  // A cohort that repeats an index: next to itself, and again in the
  // second chunk.
  const int64_t repeated = inputs.cohort[100];
  inputs.cohort[101] = repeated;
  inputs.cohort[RoundStages::kChunkSlots + 10] = repeated;
  // A population that repeats an id: another cohort client takes the id
  // of the client in slot 200.
  const int64_t twin = inputs.cohort[RoundStages::kChunkSlots / 2];
  const int64_t shared_id = inputs.clients[static_cast<size_t>(
                                               inputs.cohort[200])]
                                .id();
  inputs.clients[static_cast<size_t>(twin)] =
      Client(shared_id, {5.0}, ClientConfig{});

  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  for (const int64_t workers : kBudgets) {
    PrivacyMeter meter(inputs.policy);
    RoundConfig config = inputs.config;
    config.workers = workers;
    config.round_id = 1;
    Rng rng(77);
    const RoundOutcome outcome = AggregationServer(codec).RunRound(
        inputs.clients, inputs.cohort, config, &meter, rng);
    // Every slot answers but the three repeats, which the one-bit cap
    // denies.
    EXPECT_EQ(meter.denied_charges(), 3) << "budget " << workers;
    EXPECT_EQ(outcome.responded, kCohort - 3) << "budget " << workers;
    EXPECT_EQ(meter.ValueBits(repeated, kValueId), 1);
    EXPECT_EQ(meter.ValueBits(shared_id, kValueId), 1);
  }
  ExpectSameAtEveryBudget(inputs);
}

// --------------------------------------------------------------------------
// A durable two-shard campaign through ShardCoordinators, with the round
// budget set on the query as ShardedCampaignRunner sets it.

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

struct ShardRun {
  std::vector<ShardTickFrame> frames;
  std::vector<std::vector<uint8_t>> journals;
  std::vector<std::vector<uint8_t>> snapshots;
  std::vector<std::vector<uint8_t>> ledgers;
};

ShardRun RunDurableShards(const std::vector<Client>& population,
                          int64_t workers) {
  constexpr int64_t kShards = 2;
  const FaultPlan faults(123, [] {
    FaultRates rates;
    rates.mid_round_dropout = 0.04;
    rates.straggler = 0.02;
    rates.corrupt_message = 0.02;
    rates.truncate_message = 0.02;
    rates.round_boundary_crash = 0.01;
    return rates;
  }());
  CampaignQuery query;
  query.name = "metric";
  query.value_id = kValueId;
  query.query.adaptive.bits = kBits;
  query.query.adaptive.epsilon = 1.0;
  query.query.use_secure_aggregation = true;
  query.query.fault_plan = &faults;
  query.query.fault_policy.max_backfill_rounds = 1;
  // Round 2 of each shard's cohort fills a chunk on several threads, and
  // the clients left out of the cohort are the backfill and hedge pool.
  query.query.cohort.max_cohort_size = 3 * kCohort / 2;
  query.query.round_workers = workers;
  ResilienceConfig resilience;
  resilience.seed = 29;
  resilience.retry.max_retries_per_client = 2;
  resilience.hedge.enabled = true;
  resilience.budget.minutes = 1e6;
  resilience.breaker.consecutive_failures_to_open = 2;
  MeterPolicy policy;
  policy.max_bits_per_value = 4;

  const std::string root = ::testing::TempDir() + "/round_workers_" +
                           std::to_string(workers);
  std::filesystem::remove_all(root);
  std::vector<std::vector<Client>> partitions =
      PartitionClients(population, kShards);
  ShardRun run;
  for (int64_t s = 0; s < kShards; ++s) {
    ShardCoordinatorOptions options;
    options.shard_index = s;
    options.seed = ShardSeed(31, s);
    options.state_dir = root + "/shard" + std::to_string(s);
    options.fsync = false;
    ShardCoordinator shard({query}, policy, options, resilience);
    shard.Bind({partitions[static_cast<size_t>(s)]},
               {FixedPointCodec::Integer(kBits)});
    for (int64_t tick = 0; tick < 2; ++tick) {
      ShardTickFrame frame;
      std::string error;
      EXPECT_TRUE(shard.CollectTick(tick, &frame, &error)) << error;
      run.frames.push_back(frame);
      if (tick == 0) {
        EXPECT_TRUE(shard.Snapshot(&error)) << error;
      }
    }
    run.journals.push_back(ReadFileBytes(shard.journal_path()));
    run.snapshots.push_back(
        ReadFileBytes(options.state_dir + "/snapshot.bin"));
    std::vector<uint8_t> ledger;
    shard.local_meter()->EncodeTo(&ledger);
    run.ledgers.push_back(std::move(ledger));
  }
  std::filesystem::remove_all(root);
  return run;
}

TEST(RoundWorkersTest, DurableTwoShardCampaign) {
  Rng rng(13);
  std::vector<double> values(static_cast<size_t>(2 * (2 * kCohort)));
  for (double& v : values) v = static_cast<double>(rng.NextBelow(256));
  ClientConfig flaky;
  flaky.dropout_probability = 0.02;
  const std::vector<Client> population = MakePopulation(values, flaky);

  const ShardRun inline_run = RunDurableShards(population, 1);
  ASSERT_FALSE(inline_run.journals[0].empty());
  ASSERT_FALSE(inline_run.snapshots[0].empty());
  for (const int64_t workers : kBudgets) {
    const ShardRun run = RunDurableShards(population, workers);
    EXPECT_EQ(run.frames, inline_run.frames) << "budget " << workers;
    EXPECT_EQ(run.journals, inline_run.journals) << "budget " << workers;
    EXPECT_EQ(run.snapshots, inline_run.snapshots) << "budget " << workers;
    EXPECT_EQ(run.ledgers, inline_run.ledgers) << "budget " << workers;
  }
}

}  // namespace
}  // namespace bitpush
