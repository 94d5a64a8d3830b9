#include "federated/shard/shard_faults.h"

#include <cstddef>
#include <cstdint>

#include "rng/rng.h"
#include "util/check.h"

namespace bitpush {
namespace {

void CheckRate(double rate, const char* name) {
  BITPUSH_CHECK(rate >= 0.0 && rate <= 1.0)
      << "shard fault rate out of [0,1]: " << name << "=" << rate;
}

}  // namespace

ShardFaultPlan::ShardFaultPlan(uint64_t seed, const ShardFaultRates& rates)
    : seed_(seed), rates_(rates), enabled_(rates.Any()) {
  CheckRate(rates.crash_at_record, "crash_at_record");
  CheckRate(rates.stall, "stall");
  CheckRate(rates.torn_journal, "torn_journal");
  CheckRate(rates.stale_snapshot, "stale_snapshot");
  const double sum = rates.crash_at_record + rates.stall +
                     rates.torn_journal + rates.stale_snapshot;
  BITPUSH_CHECK(sum <= 1.0) << "shard fault rates sum to " << sum << " > 1";
}

// bitpush-lint: allow(unreached-function): seam that ShardDegradedMergeTest.LostShardIsExcludedWithExactAccounting and ShardQuorumTest.BelowQuorumFailsClosed use to lose a shard for good
void ShardFaultPlan::SetPermanentLoss(int64_t shard, int64_t from_tick) {
  BITPUSH_CHECK(shard >= -1);
  lost_shard_ = shard;
  lost_from_tick_ = from_tick;
}

uint64_t ShardFaultPlan::Hash(int64_t shard, int64_t tick, int64_t attempt,
                              uint64_t salt) const {
  uint64_t h = Mix(seed_ ^ Mix(static_cast<uint64_t>(tick)));
  h = Mix(h ^ static_cast<uint64_t>(shard));
  h = Mix(h ^ static_cast<uint64_t>(attempt) ^ salt);
  return h;
}

double ShardFaultPlan::HashUniform(int64_t shard, int64_t tick,
                                   int64_t attempt, uint64_t salt) const {
  return static_cast<double>(Hash(shard, tick, attempt, salt) >> 11) *
         0x1.0p-53;
}

ShardFaultType ShardFaultPlan::Decide(int64_t shard, int64_t tick,
                                      int64_t attempt) const {
  if (!enabled_) return ShardFaultType::kNone;
  const double u = HashUniform(shard, tick, attempt, /*salt=*/0x51);
  double edge = rates_.crash_at_record;
  if (u < edge) return ShardFaultType::kCrashAtRecord;
  edge += rates_.stall;
  if (u < edge) return ShardFaultType::kStall;
  edge += rates_.torn_journal;
  if (u < edge) return ShardFaultType::kTornJournal;
  edge += rates_.stale_snapshot;
  if (u < edge) return ShardFaultType::kStaleSnapshot;
  return ShardFaultType::kNone;
}

int64_t ShardFaultPlan::CrashRecordIndex(int64_t shard, int64_t tick,
                                         int64_t attempt,
                                         int64_t journal_records) const {
  BITPUSH_CHECK_GE(journal_records, 0);
  const uint64_t h = Hash(shard, tick, attempt, /*salt=*/0x52);
  return static_cast<int64_t>(h %
                              static_cast<uint64_t>(journal_records + 1));
}

size_t ShardFaultPlan::TornTailBytes(int64_t shard, int64_t tick,
                                     int64_t attempt) const {
  const uint64_t h = Hash(shard, tick, attempt, /*salt=*/0x53);
  return static_cast<size_t>(1 + h % 3);
}

}  // namespace bitpush
