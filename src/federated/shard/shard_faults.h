// Shard-level fault injection: the chaos layer for the multi-coordinator
// shard-out (docs/SHARDING.md). Where federated/faults.h perturbs
// individual clients inside a round, ShardFaultPlan perturbs whole
// coordinator shards between the shard and the merge tier:
//
//   kCrashAtRecord  — the shard process dies after its tick ran but before
//                     the frame was delivered, with the journal cut at a
//                     deterministic record index (the kill-at-every-record
//                     model of persist/, lifted to shards).
//   kStall          — the shard is alive but late: the attempt burns
//                     simulated minutes and delivers nothing.
//   kTornJournal    — the crash tore the last journal frame mid-write
//                     (1-3 bytes missing); recovery must tolerate the torn
//                     tail and re-run the tick.
//   kStaleSnapshot  — every journal record after the last snapshot is
//                     lost; recovery restarts from the snapshot alone.
//
// Decisions are pure hashes of (seed, shard, tick, attempt) — the same
// SplitMix64 idiom as FaultPlan — so they consume no RNG stream, are
// order-independent, and replay identically during crash recovery.
// Permanent loss (the degraded-merge path) is injected explicitly rather
// than sampled: tests name the shard and the tick it disappears.

#ifndef BITPUSH_FEDERATED_SHARD_SHARD_FAULTS_H_
#define BITPUSH_FEDERATED_SHARD_SHARD_FAULTS_H_

#include <cstddef>
#include <cstdint>

namespace bitpush {

enum class ShardFaultType : uint8_t {
  kNone = 0,
  kCrashAtRecord = 1,
  kStall = 2,
  kTornJournal = 3,
  kStaleSnapshot = 4,
};

// Per-attempt probabilities; must each be in [0, 1] and sum to <= 1.
struct ShardFaultRates {
  double crash_at_record = 0.0;
  double stall = 0.0;
  double torn_journal = 0.0;
  double stale_snapshot = 0.0;

  bool Any() const {
    return crash_at_record > 0.0 || stall > 0.0 || torn_journal > 0.0 ||
           stale_snapshot > 0.0;
  }
};

class ShardFaultPlan {
 public:
  // A default plan injects nothing (enabled() is false).
  ShardFaultPlan() = default;
  // CHECK-fails on invalid rates.
  ShardFaultPlan(uint64_t seed, const ShardFaultRates& rates);

  bool enabled() const { return enabled_ || lost_shard_ >= 0; }
  const ShardFaultRates& rates() const { return rates_; }

  // Marks `shard` irrecoverably lost from `from_tick` on: it never answers
  // again and the merge tier must degrade around it. -1 disables.
  void SetPermanentLoss(int64_t shard, int64_t from_tick);
  bool PermanentlyLost(int64_t shard, int64_t tick) const {
    return lost_shard_ >= 0 && shard == lost_shard_ && tick >= lost_from_tick_;
  }

  // The fault injected into this (shard, tick, attempt) delivery attempt.
  ShardFaultType Decide(int64_t shard, int64_t tick, int64_t attempt) const;

  // For kCrashAtRecord: how many of the journal's records survive the
  // crash, in [0, journal_records]. Cutting short of the tick's own
  // records forces recovery to replay or re-run earlier work; keeping all
  // of them models a crash after the fsync but before frame delivery.
  int64_t CrashRecordIndex(int64_t shard, int64_t tick, int64_t attempt,
                           int64_t journal_records) const;

  // For kTornJournal: bytes torn off the journal tail (1-3; always lands
  // inside the final frame's CRC, which ReadJournal treats as torn).
  size_t TornTailBytes(int64_t shard, int64_t tick, int64_t attempt) const;

 private:
  uint64_t Hash(int64_t shard, int64_t tick, int64_t attempt,
                uint64_t salt) const;
  double HashUniform(int64_t shard, int64_t tick, int64_t attempt,
                     uint64_t salt) const;

  uint64_t seed_ = 0;
  ShardFaultRates rates_;
  bool enabled_ = false;
  int64_t lost_shard_ = -1;
  int64_t lost_from_tick_ = 0;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_SHARD_SHARD_FAULTS_H_
