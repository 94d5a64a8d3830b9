// One coordinator shard of the multi-coordinator shard-out
// (docs/SHARDING.md): a ShardCoordinator owns collection, resilience, and
// persistence for one deterministic partition of the client population —
// its own PrivacyMeter ledger, its own journal/snapshot under
// `state_dir`, and its own seeded RNG stream — and hands the merge tier
// one ShardTickFrame per tick.
//
// Failure domain: everything behind a ShardCoordinator can die and come
// back (Restart + crash recovery through DurableCampaignRunner) or not
// come back at all (the merge tier degrades around it); neither case can
// corrupt another shard, because shards share no state — client ids are
// globally unique, so even the per-client meter ledgers are disjoint.
//
// Determinism: shard s runs its campaign with Rng(ShardSeed(root, s))
// over PartitionClients' round-robin split. Both are pure functions of
// (root seed, shard count, population order), so an N-shard run is a
// deterministic program — and the single-coordinator reference
// (shard/runner.h) re-executes the identical per-shard streams inline,
// which is what makes `sharded == reference` testable bit-for-bit.

#ifndef BITPUSH_FEDERATED_SHARD_SHARD_H_
#define BITPUSH_FEDERATED_SHARD_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/privacy_meter.h"
#include "federated/campaign.h"
#include "federated/client.h"
#include "federated/resilience.h"
#include "federated/shard/merge.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "persist/recovery.h"

namespace bitpush {

// The seed of shard `shard_index`'s campaign RNG and resilience salt:
// a SplitMix64-style derivation so sibling shards get decorrelated
// streams from one root seed.
uint64_t ShardSeed(uint64_t root_seed, int64_t shard_index);

// Deterministic round-robin partition: client i of `population` goes to
// shard i % shards, relative order preserved. Every client appears in
// exactly one shard, so tallies merge losslessly and meter ledgers are
// disjoint.
std::vector<std::vector<Client>> PartitionClients(
    const std::vector<Client>& population, int64_t shards);

// Journal helpers that tolerate a first sequence number > 0 (the normal
// state of a journal that has been truncated by a snapshot; plain
// ReadJournal/TruncateJournalToRecords require the caller to know the
// snapshot's next_seq). Used by the shard fault harness and the
// kill-at-every-record matrix.
bool ReadShardJournal(const std::string& path, JournalReadResult* out,
                      std::string* error);
bool TruncateShardJournalToRecords(const std::string& path,
                                   size_t keep_records, std::string* error);
// Chops `bytes` off the end of the file — the torn-write crash artifact.
bool TearShardJournalTail(const std::string& path, size_t bytes,
                          std::string* error);

// Builds one query's frame row from a live outcome: tallies are the
// round-1 + round-2 histograms (zero-width when the query never ran a
// round) and faults are the round-level sums. Shared by the shard harvest
// and the single-coordinator reference so both normalize identically.
ShardQueryFrame MakeShardQueryFrame(int64_t query_index,
                                    int64_t partition_clients,
                                    const CampaignTickResult& result,
                                    const FederatedQueryResult& outcome);

struct ShardCoordinatorOptions {
  int64_t shard_index = 0;
  // This shard's own seed (already derived via ShardSeed).
  uint64_t seed = 0;
  // Directory for journal.wal/snapshot.bin; "" runs the shard in memory
  // (a DurableCampaignRunner with no state dir: no durability, so
  // Restart() re-executes from tick 0, which is deterministic and
  // converges to the same frames).
  std::string state_dir;
  bool fsync = true;
};

// One shard: a campaign coordinator over a client partition with its own
// meter, journal, and RNG stream. Durable and in-memory shards both run
// their campaign through a DurableCampaignRunner; only its state dir
// differs.
class ShardCoordinator {
 public:
  ShardCoordinator(std::vector<CampaignQuery> queries, MeterPolicy policy,
                   ShardCoordinatorOptions options,
                   ResilienceConfig resilience = {});

  // Installs this shard's per-query client partitions (indexed parallel
  // to the query list) and codecs. Must be called once before the first
  // CollectTick.
  void Bind(std::vector<std::vector<Client>> partitions,
            std::vector<FixedPointCodec> codecs);

  // Runs (or recovers) every tick up to and including `tick`, in order,
  // and fills `*frame` with `tick`'s contribution. A shard that fell
  // behind (lost ticks, crash recovery) catches up here — earlier ticks
  // re-run deterministically but are not re-delivered. Fails closed
  // (false + *error) on any durability violation, including journal
  // records still uncommitted when the frame is built. `parent` is the
  // merge tier's tick-span context; when tracing is on, the shard's
  // collect span is parented under it and the frame carries the stitched
  // coordinates back across the wire.
  bool CollectTick(int64_t tick, ShardTickFrame* frame, std::string* error,
                   const obs::TraceContext& parent = obs::TraceContext{});

  // Takes a snapshot and truncates the journal. Only legal at a delivered
  // tick boundary (the sharded runner calls it after the merge publishes,
  // so an undelivered tick's records always survive in the journal).
  // No-op (true) for in-memory shards.
  bool Snapshot(std::string* error);

  // Simulates a shard process crash: all in-process state is dropped. A
  // durable shard recovers from its journal/snapshot on the next
  // CollectTick; an in-memory shard re-executes from tick 0.
  void Restart();

  bool durable() const { return !options_.state_dir.empty(); }
  std::string journal_path() const;
  int64_t shard_index() const { return options_.shard_index; }
  // Clients in this shard's partition for query `query_index`.
  int64_t partition_clients(size_t query_index) const;

  // The shard-local privacy ledger: every report this shard collects is
  // charged here and nowhere else (no cross-shard double metering).
  // Returns the live meter; null before the first CollectTick.
  const PrivacyMeter* local_meter() const;

  // Harness-side operational counters (attempts, recoveries, replays).
  // They survive simulated crashes — they model the merge tier's view of
  // the shard, not state inside the failure domain.
  const ShardMetrics& metrics() const { return metrics_; }
  void NoteAttempt() { ++metrics_.shard_attempts; }
  void NoteRetry() { ++metrics_.shard_retries; }
  void NoteStall() { ++metrics_.shard_stalls; }
  void NoteLostTick() { ++metrics_.lost_ticks; }

 private:
  bool EnsureOpen(std::string* error,
                  const obs::TraceContext& parent = obs::TraceContext{});
  int64_t next_tick() const;
  std::vector<const std::vector<Client>*> PopulationPointers() const;
  // Recovers a fully-restored query's round outcomes from the shard's own
  // journal (full_results() only carries live-executed queries).
  bool HarvestFromJournal(int64_t tick, int64_t query_index,
                          std::vector<RoundOutcome>* rounds,
                          std::string* error) const;

  std::vector<CampaignQuery> queries_;
  MeterPolicy policy_;
  ShardCoordinatorOptions options_;
  ResilienceConfig resilience_;
  std::vector<std::vector<Client>> partitions_;
  std::vector<FixedPointCodec> codecs_;
  bool bound_ = false;

  std::unique_ptr<DurableCampaignRunner> runner_;  // null until opened

  ShardMetrics metrics_;
  int64_t last_harvested_tick_ = -1;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_SHARD_SHARD_H_
