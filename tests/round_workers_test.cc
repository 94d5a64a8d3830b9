// Round-worker invariance: the stage and apply steps of a collection round
// (federated/round_stages.h) run on 1, 2 or 4 threads, overlapping the
// respond step of the chunk between them, and nothing the round produces
// may depend on how many. Each case runs the same inputs at every budget
// and compares the round outcome, the ledger's canonical bytes, the charge
// decisions and the RNG state. It reads each round's decisions from the
// outcome's contact list and charge bitmaps, in contact order, as recovery
// does, and replays them through one-step charges
// (PrivacyMeter::TryChargeBit), which must decide every charge as the
// round did: contact order is charge order. The rounds are large enough
// that a chunk splits over several threads; the later cases span four
// chunks and more.
// ctest -R RoundWorkers; the TSan stage of scripts/check.sh runs it.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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
#include "obs/trace.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

constexpr int kBits = 8;
constexpr int64_t kValueId = 3;
constexpr int64_t kChunk = static_cast<int64_t>(RoundStages::kChunkSlots);
// Enough slots for a full chunk on four threads and a second chunk.
constexpr int64_t kCohort = kChunk + 5000;
// Four full chunks and part of a fifth.
constexpr int64_t kLongCohort = 4 * kChunk + 3000;
constexpr int64_t kPool = 6000;
const int64_t kBudgets[] = {1, 2, 4};

// One charge decision, as the meter made it.
struct Decision {
  int64_t client_id = 0;
  int64_t value_id = 0;
  double epsilon = 0.0;
  bool granted = false;

  friend bool operator==(const Decision&, const Decision&) = default;
};

// Appends the charge decisions `outcome` records at `value_id`: its
// contacts whose charge reached the meter, in contact order, with their
// granted bits.
void AppendDecisions(const RoundOutcome& outcome,
                     const std::vector<Client>& clients, int64_t value_id,
                     std::vector<Decision>* out) {
  for (size_t i = 0; i < outcome.assigned_clients.size(); ++i) {
    const uint64_t bit = uint64_t{1} << (i % 64);
    if ((outcome.charge_attempted[i / 64] & bit) == 0) continue;
    const size_t index = static_cast<size_t>(outcome.assigned_clients[i]);
    out->push_back(Decision{clients[index].id(), value_id,
                            outcome.charge_epsilon,
                            (outcome.charge_granted[i / 64] & bit) != 0});
  }
}

struct Inputs {
  std::vector<Client> clients;
  std::vector<int64_t> cohort;
  RoundConfig config;
  MeterPolicy policy;
  FaultPlan faults;
  HealthTracker health;
  // Clients charged one step at a time, before the first round, so that
  // they have rows.
  std::vector<int64_t> warm;
};

// Everything a round leaves behind that must not depend on the budget.
struct Result {
  std::vector<std::vector<uint8_t>> outcomes;
  std::vector<uint8_t> ledger;
  // Every charge decision: the warm one-step charges, then each round's,
  // read from its outcome.
  std::vector<Decision> decisions;
  int64_t denied = 0;
  double total_epsilon = 0.0;
  Rng rng{0};
};

std::vector<uint8_t> Encoded(const RoundOutcome& outcome) {
  std::vector<uint8_t> bytes;
  EncodeRoundOutcome(outcome, &bytes);
  return bytes;
}

// Runs two rounds (the first charges each client for the first time, the
// second again) at round-worker budget `workers`. With `bound`, the meter
// is bound to the population first (MeasurementCampaign::BindPopulations),
// so that the rounds register no client; without, each round registers
// its cohort and pool.
Result RunRounds(const Inputs& inputs, int64_t workers, bool bound = false) {
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  const AggregationServer server(codec);
  PrivacyMeter meter(inputs.policy);
  if (bound) {
    CampaignQuery query;
    query.name = "metric";
    query.value_id = kValueId;
    MeasurementCampaign({query}, &meter).BindPopulations({&inputs.clients});
  }
  Result result;
  for (const int64_t idx : inputs.warm) {
    const int64_t id = inputs.clients[static_cast<size_t>(idx)].id();
    result.decisions.push_back(
        Decision{id, kValueId, 0.0, meter.TryChargeBit(id, kValueId, 0.0)});
  }
  RoundConfig config = inputs.config;
  config.workers = workers;
  if (inputs.faults.enabled()) config.fault_plan = &inputs.faults;
  if (inputs.health.policy().enabled()) config.health = &inputs.health;
  Rng rng(77);
  for (int64_t round = 1; round <= 2; ++round) {
    config.round_id = round;
    const RoundOutcome outcome = server.RunRound(
        inputs.clients, inputs.cohort, config, &meter, rng);
    AppendDecisions(outcome, inputs.clients, config.value_id,
                    &result.decisions);
    result.outcomes.push_back(Encoded(outcome));
  }
  meter.EncodeTo(&result.ledger);
  result.denied = meter.denied_charges();
  result.total_epsilon = meter.total_epsilon();
  result.rng = rng;
  return result;
}

// Replays `result`'s charge decisions, in order, through one-step charges
// on a fresh meter: each must be decided as the round decided it, and the
// ledger must end the same.
void ExpectOneStepDecisions(const Result& result, const MeterPolicy& policy) {
  PrivacyMeter meter(policy);
  int64_t differ = 0;
  for (const Decision& decision : result.decisions) {
    if (meter.TryChargeBit(decision.client_id, decision.value_id,
                           decision.epsilon) != decision.granted) {
      ++differ;
    }
  }
  EXPECT_EQ(differ, 0) << "of " << result.decisions.size()
                       << " charge attempts";
  std::vector<uint8_t> ledger;
  meter.EncodeTo(&ledger);
  EXPECT_EQ(ledger, result.ledger);
}

void ExpectSameAtEveryBudget(const Inputs& inputs) {
  const Result inline_result = RunRounds(inputs, 1);
  ExpectOneStepDecisions(inline_result, inputs.policy);
  for (const int64_t workers : kBudgets) {
    for (const bool bound : {false, true}) {
      const Result result = RunRounds(inputs, workers, bound);
      const std::string where = "at budget " + std::to_string(workers) +
                                (bound ? ", bound meter" : "");
      EXPECT_EQ(result.outcomes, inline_result.outcomes)
          << "round outcome " << where;
      EXPECT_EQ(result.ledger, inline_result.ledger) << "ledger " << where;
      EXPECT_TRUE(result.decisions == inline_result.decisions)
          << "charge decisions " << where;
      EXPECT_EQ(result.denied, inline_result.denied) << where;
      EXPECT_EQ(result.total_epsilon, inline_result.total_epsilon) << where;
      EXPECT_TRUE(result.rng == inline_result.rng) << "RNG state " << where;
    }
  }
}

// cohort + kPool clients, the cohort a shuffled permutation of the first
// `cohort` indices and the backfill pool the rest.
Inputs MakeInputs(const ClientConfig& client_config, int values_per_client,
                  int64_t cohort = kCohort) {
  Inputs inputs;
  Rng rng(5);
  const int64_t n = cohort + kPool;
  inputs.clients.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> values;
    for (int v = 0; v < values_per_client; ++v) {
      values.push_back(static_cast<double>(rng.NextBelow(256)));
    }
    inputs.clients.emplace_back(i, std::move(values), client_config);
  }
  for (int64_t i = 0; i < cohort; ++i) inputs.cohort.push_back(i);
  for (int64_t i = cohort - 1; i > 0; --i) {
    std::swap(inputs.cohort[static_cast<size_t>(i)],
              inputs.cohort[rng.NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
  inputs.config.probabilities = GeometricProbabilities(kBits, 0.5);
  inputs.config.value_id = kValueId;
  inputs.policy.max_bits_per_value = 8;
  return inputs;
}

bool Straggles(const FaultPlan& plan, int64_t id, int64_t round_id) {
  return plan.DecideAttempt(round_id, id, /*attempt=*/0) ==
         FaultType::kStraggler;
}

// Arms `inputs` for hedges on late reports: a fault plan under which one
// client in 64 straggles in each round, a finite report deadline, so that
// a straggler's report is late and draws a hedge from the pool, and
// hedging on. Every client is re-ided, in order, with the next id that
// straggles in neither round 1 nor round 2, so that only the clients a
// case makes late (LateClient) straggle.
void ArmLateHedges(Inputs* inputs) {
  FaultRates rates;
  rates.straggler = 1.0 / 64;
  inputs->faults = FaultPlan(61, rates);
  inputs->config.fault_policy.report_deadline_minutes = 10.0;
  inputs->config.resilience.hedge.enabled = true;
  int64_t id = 0;
  for (Client& client : inputs->clients) {
    while (Straggles(inputs->faults, id, 1) ||
           Straggles(inputs->faults, id, 2)) {
      ++id;
    }
    const std::span<const double> values = client.values();
    client = Client(id++, std::vector<double>(values.begin(), values.end()),
                    client.config());
  }
}

// A client whose report is late in rounds 1 and 2 under ArmLateHedges'
// plan: the first id from `*next` on that straggles in both, above every
// id ArmLateHedges hands out.
Client LateClient(const Inputs& inputs, int64_t* next) {
  *next = std::max(*next, int64_t{1} << 32);
  while (!Straggles(inputs.faults, *next, 1) ||
         !Straggles(inputs.faults, *next, 2)) {
    ++*next;
  }
  return Client((*next)++, {7.0}, ClientConfig{});
}

RetryStats PooledRetry(const Result& result) {
  RetryStats retry;
  for (const std::vector<uint8_t>& bytes : result.outcomes) {
    RoundOutcome round;
    size_t offset = 0;
    EXPECT_TRUE(DecodeRoundOutcome(bytes, &offset, &round));
    retry.MergeFrom(round.retry);
  }
  return retry;
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
  // Stragglers are late, so each one draws a hedge from the pool.
  inputs.config.fault_policy.report_deadline_minutes = 10.0;
  ResilienceConfig& res = inputs.config.resilience;
  res.seed = 17;
  res.retry.max_retries_per_client = 2;
  res.hedge.enabled = true;
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

// Rounds over kLongCohort slots, where the threads stage each chunk while
// the one before it responds.

// Two rounds at one bit per value on a fresh ledger: the first charges
// kWarmValue to every client, last index first (a first-charge pass, whose
// inserts grow the client table at the first three chunk ends but not at
// the fourth), and the second charges kValueId to the cohort, whose clients
// all have a row with kWarmValue in it (so each grant adds a count to the
// meter's value table, and the client table does not grow). In each round
// some clients come up again in the chunk right after their grant, staged
// before that grant was applied, and two chunks after it.
constexpr int64_t kWarmValue = 9;

struct RepeatRounds {
  std::vector<Client> clients;
  std::vector<int64_t> first_cohort;
  std::vector<int64_t> second_cohort;
  // The repeated clients' ids, with each round's value.
  std::vector<std::pair<int64_t, int64_t>> repeated;
};

Result RunRepeatRounds(const RepeatRounds& rounds, const MeterPolicy& policy,
                       int64_t workers) {
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  PrivacyMeter meter(policy);
  RoundConfig config;
  config.probabilities = GeometricProbabilities(kBits, 0.5);
  config.workers = workers;
  Result result;
  Rng rng(77);
  const std::pair<const std::vector<int64_t>*, int64_t> passes[] = {
      {&rounds.first_cohort, kWarmValue}, {&rounds.second_cohort, kValueId}};
  for (const auto& [cohort, value_id] : passes) {
    config.value_id = value_id;
    ++config.round_id;
    const RoundOutcome outcome = AggregationServer(codec).RunRound(
        rounds.clients, *cohort, config, &meter, rng);
    AppendDecisions(outcome, rounds.clients, value_id, &result.decisions);
    result.outcomes.push_back(Encoded(outcome));
  }
  for (const auto& [id, value_id] : rounds.repeated) {
    EXPECT_EQ(meter.ValueBits(id, value_id), 1)
        << "client " << id << " at budget " << workers;
  }
  meter.EncodeTo(&result.ledger);
  result.denied = meter.denied_charges();
  result.total_epsilon = meter.total_epsilon();
  result.rng = rng;
  return result;
}

TEST(RoundWorkersTest, RepeatsInTheNextTwoChunksAreDeniedAtOneBitPerValue) {
  const Inputs inputs = MakeInputs(ClientConfig{}, 1, kLongCohort);
  RepeatRounds rounds;
  rounds.clients = inputs.clients;
  rounds.second_cohort = inputs.cohort;
  const int64_t n = static_cast<int64_t>(inputs.clients.size());
  for (int64_t i = 0; i < n; ++i) rounds.first_cohort.push_back(n - 1 - i);
  // Slot `again` answers for the client of slot `slot` once more.
  const auto repeat = [&](std::vector<int64_t>* cohort, int64_t value_id,
                          int64_t slot, std::initializer_list<int64_t> again) {
    const int64_t idx = (*cohort)[static_cast<size_t>(slot)];
    for (const int64_t a : again) (*cohort)[static_cast<size_t>(a)] = idx;
    rounds.repeated.emplace_back(
        rounds.clients[static_cast<size_t>(idx)].id(), value_id);
  };
  // First round: two chunks after a grant that grew the table, and the
  // chunk right after a grant (a new row) that did not.
  repeat(&rounds.first_cohort, kWarmValue, 100, {2 * kChunk + 100});
  repeat(&rounds.first_cohort, kWarmValue, 3 * kChunk + 100,
         {4 * kChunk + 100});
  // Second round: two chunks after a grant, and the chunk right after a
  // grant and then later on.
  repeat(&rounds.second_cohort, kValueId, 100, {2 * kChunk + 20});
  repeat(&rounds.second_cohort, kValueId, kChunk + 100,
         {2 * kChunk + 50, 3 * kChunk + 70});
  MeterPolicy policy;
  policy.max_bits_per_value = 1;

  const Result inline_result = RunRepeatRounds(rounds, policy, 1);
  // The five repeats are the only denials, as one-step charges decide.
  EXPECT_EQ(inline_result.denied, 5);
  ExpectOneStepDecisions(inline_result, policy);
  for (const int64_t workers : kBudgets) {
    const Result result = RunRepeatRounds(rounds, policy, workers);
    EXPECT_EQ(result.outcomes, inline_result.outcomes)
        << "round outcome at budget " << workers;
    EXPECT_EQ(result.ledger, inline_result.ledger)
        << "ledger at budget " << workers;
    EXPECT_TRUE(result.decisions == inline_result.decisions)
        << "charge decisions at budget " << workers;
    EXPECT_EQ(result.denied, 5) << "budget " << workers;
    EXPECT_TRUE(result.rng == inline_result.rng)
        << "RNG state at budget " << workers;
  }
}

TEST(RoundWorkersTest, FirstChargesRegisterUpFrontAndApplyInPlace) {
  ClientConfig flaky;
  flaky.dropout_probability = 0.05;
  Inputs inputs = MakeInputs(flaky, 1, kLongCohort);
  // The clients of the second chunk already have rows, so that the first
  // round's chunks go: first charges, repeat charges, first charges again.
  for (int64_t slot = kChunk; slot < 2 * kChunk; ++slot) {
    inputs.warm.push_back(inputs.cohort[static_cast<size_t>(slot)]);
  }
  PrivacyMeter meter(inputs.policy);
  for (const int64_t idx : inputs.warm) {
    meter.TryChargeBit(inputs.clients[static_cast<size_t>(idx)].id(),
                       kValueId, 0.0);
  }
  ASSERT_EQ(meter.rows(), static_cast<size_t>(kChunk));
  // The round registers its cohort and its pool before the first stage:
  // every client the round may contact has a row, and the grants add
  // none, so every one of them is applied in place.
  RoundConfig config = inputs.config;
  config.workers = 4;
  config.backfill_pool.clear();
  for (int64_t i = kLongCohort; i < kLongCohort + kPool; ++i) {
    config.backfill_pool.push_back(i);
  }
  Rng rng(77);
  AggregationServer(FixedPointCodec::Integer(kBits))
      .RunRound(inputs.clients, inputs.cohort, config, &meter, rng);
  EXPECT_EQ(meter.rows(), inputs.clients.size());
  ExpectSameAtEveryBudget(inputs);
}

// A population that repeats ids, and hedges drawn from the backfill pool
// whose clients share an id with a cohort client: granted earlier in the
// same chunk and still pending, granted in the chunk before, or staged in
// the next one. Claims key on rows, so every repeat is decided against
// its twin's grant. The late clients spend their one bit in round 1, so
// only round 1 hedges: a denied straggler sends no report to be late.
TEST(RoundWorkersTest, RepeatedIdsInTheCohortAndTheHedgePool) {
  Inputs inputs = MakeInputs(ClientConfig{}, 1, kLongCohort);
  inputs.policy.max_bits_per_value = 1;
  ArmLateHedges(&inputs);
  inputs.config.backfill_pool.clear();
  int64_t pool_index = kLongCohort;
  int64_t late_id = 0;
  // The id of the cohort client in slot `slot`.
  const auto id_at = [&](int64_t slot) {
    return inputs.clients[static_cast<size_t>(
                              inputs.cohort[static_cast<size_t>(slot)])]
        .id();
  };
  for (int64_t chunk = 0; chunk < 4; ++chunk) {
    const int64_t base = chunk * kChunk;
    const std::pair<int64_t, int64_t> hedges[] = {
        {base + 3000, base + 2000},
        {base + 9000, chunk > 0 ? base - 4000 : base + 8500},
        {base + 15000, base + kChunk + 1000}};
    for (const auto& [slot, twin_slot] : hedges) {
      const int64_t idx = inputs.cohort[static_cast<size_t>(slot)];
      inputs.clients[static_cast<size_t>(idx)] = LateClient(inputs, &late_id);
      // A pool client with the id of the client in `twin_slot`.
      inputs.clients[static_cast<size_t>(pool_index)] =
          Client(id_at(twin_slot), {3.0}, ClientConfig{});
      inputs.config.backfill_pool.push_back(pool_index++);
    }
    // And a cohort client that takes the id of one two slots earlier.
    const int64_t twin = inputs.cohort[static_cast<size_t>(base + 5002)];
    inputs.clients[static_cast<size_t>(twin)] =
        Client(id_at(base + 5000), {1.0}, ClientConfig{});
  }
  EXPECT_EQ(PooledRetry(RunRounds(inputs, 1)).hedges_issued, 12);
  ExpectSameAtEveryBudget(inputs);
}

TEST(RoundWorkersTest, HedgesOnPendingGrantsWhileTheNextChunkStages) {
  Inputs inputs = MakeInputs(ClientConfig{}, 1, kLongCohort);
  inputs.policy.max_bits_per_value = 2;
  // The clients of these slots are late, so that each of them issues a
  // hedge. Its client comes from the pool, which holds cohort clients: one
  // granted earlier in the same chunk, still pending; one granted in the
  // chunk before, whose grant the threads apply while this chunk runs; and
  // one in the next chunk, which the threads are staging.
  ArmLateHedges(&inputs);
  inputs.config.backfill_pool.clear();
  int64_t late_id = 0;
  for (int64_t chunk = 0; chunk < 4; ++chunk) {
    const int64_t base = chunk * kChunk;
    const std::pair<int64_t, int64_t> hedges[] = {
        {base + 3000, base + 2000},
        {base + 9000, chunk > 0 ? base - 4000 : base + 8500},
        {base + 15000, base + kChunk + 1000},
        {base + 21000, base + 20990}};
    for (const auto& [slot, hedge_slot] : hedges) {
      const int64_t idx = inputs.cohort[static_cast<size_t>(slot)];
      inputs.clients[static_cast<size_t>(idx)] = LateClient(inputs, &late_id);
      inputs.config.backfill_pool.push_back(
          inputs.cohort[static_cast<size_t>(hedge_slot)]);
    }
  }

  const RetryStats retry = PooledRetry(RunRounds(inputs, 1));
  // Each round issues the 16 hedges the pool holds. In the first, every
  // hedge client has at most one bit and answers; in the second, each has
  // two, and the cap denies it.
  EXPECT_EQ(retry.hedges_issued, 32);
  EXPECT_EQ(retry.hedge_reports, 16);
  EXPECT_EQ(retry.hedge_failures, 16);
  ExpectSameAtEveryBudget(inputs);
}

// A hedge onto a client no slot of the round has claimed is staged at once:
// it finishes neither the threads' work nor the chunk, so the caller's
// steps read as in a round without hedges.
TEST(RoundWorkersTest, HedgesDoNotWaitForTheThreads) {
  Inputs inputs = MakeInputs(ClientConfig{}, 1, kLongCohort);
  // The client at slot 3000 of each of the first four chunks is late and
  // hedges onto a fresh pool client.
  ArmLateHedges(&inputs);
  inputs.config.backfill_pool.clear();
  int64_t late_id = 0;
  for (int64_t chunk = 0; chunk < 4; ++chunk) {
    const int64_t idx =
        inputs.cohort[static_cast<size_t>(chunk * kChunk + 3000)];
    inputs.clients[static_cast<size_t>(idx)] = LateClient(inputs, &late_id);
    inputs.config.backfill_pool.push_back(kLongCohort + chunk);
  }
  RoundConfig config = inputs.config;
  config.workers = 4;
  config.round_id = 1;
  config.fault_plan = &inputs.faults;
  PrivacyMeter meter(inputs.policy);
  Rng rng(77);

  obs::Tracer::Default().Reset();
  obs::SetTracingEnabled(true);
  const RoundOutcome outcome =
      AggregationServer(FixedPointCodec::Integer(kBits))
          .RunRound(inputs.clients, inputs.cohort, config, &meter, rng);
  obs::SetTracingEnabled(false);
  EXPECT_EQ(outcome.retry.hedge_reports, 4);
  // The caller's steps, one letter each, in the order they ended.
  std::string steps;
  for (const obs::SpanRecord& span : obs::Tracer::Default().Snapshot()) {
    if (span.name == "round.stage") steps += 's';
    if (span.name == "round.respond") steps += 'r';
    if (span.name == "round.wait") steps += 'w';
    if (span.name == "round.apply") steps += 'a';
  }
  obs::Tracer::Default().Reset();
  // The first chunk's stage, each chunk's respond and wait, and the last
  // chunk's apply.
  EXPECT_EQ(steps, "srwrwrwrwrwa");
}

// respond may throw (say, out of memory) while the threads stage the next
// chunk from the pass's indices: the exception leaves RunPass only once
// they are done, before the frame that owns the indices unwinds.
TEST(RoundWorkersTest, RespondThatThrowsFinishesTheThreadsFirst) {
  const Inputs inputs = MakeInputs(ClientConfig{}, 1, kLongCohort);
  PrivacyMeter meter(inputs.policy);
  for (const Client& client : inputs.clients) meter.Register(client.id());
  RoundStages stages(inputs.clients, &meter, kValueId, 0.0, 4);
  size_t responded = 0;
  const auto run_pass = [&] {
    const std::vector<int64_t> indices = inputs.cohort;
    stages.RunPass(indices, obs::TraceContext{}, 1,
                   [&](const StagedSlot&, size_t i) {
                     if (i == static_cast<size_t>(kChunk) + 10) {
                       throw std::runtime_error("respond failed");
                     }
                     ++responded;
                   });
  };
  EXPECT_THROW(run_pass(), std::runtime_error);
  EXPECT_EQ(responded, static_cast<size_t>(kChunk) + 10);
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
  // Stragglers are late, so each one draws a hedge from the pool.
  query.query.fault_policy.report_deadline_minutes = 10.0;
  // Round 2 of each shard's cohort fills a chunk on several threads, and
  // the clients left out of the cohort are the backfill and hedge pool.
  query.query.cohort.max_cohort_size = 3 * kCohort / 2;
  query.query.round_workers = workers;
  ResilienceConfig resilience;
  resilience.seed = 29;
  resilience.retry.max_retries_per_client = 2;
  resilience.hedge.enabled = true;
  resilience.breaker.consecutive_failures_to_open = 2;
  MeterPolicy policy;
  policy.max_bits_per_value = 4;

  // Its own directory per process, so that concurrent runs of this suite
  // (ctest beside a sanitizer loop) never remove each other's files, gone
  // when the run ends.
  const std::string root = ::testing::TempDir() + "/round_workers_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(workers);
  std::filesystem::remove_all(root);
  struct RemoveOnExit {
    const std::string& root;
    ~RemoveOnExit() { std::filesystem::remove_all(root); }
  } remove_on_exit{root};
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
