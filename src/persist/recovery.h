// Crash recovery: snapshot + journal replay into a resumable campaign.
//
// DurableCampaignRunner wraps a MeasurementCampaign with the write-ahead
// journal (persist/journal.h) and periodic snapshots (persist/snapshot.h)
// so that a coordinator killed at *any* instant — mid-round, mid-charge,
// between a snapshot rename and the journal truncation — resumes and
// produces byte-identical results to an uninterrupted run.
//
// The recovery model is deterministic re-execution with a replay cursor:
//
//   1. Load the newest snapshot: privacy-meter ledger, finished queries,
//      bit-means cache, breaker state, completed-tick count.
//   2. Replay the journal tail on top of it. Meter-charge records are
//      re-applied through the real meter, verifying the recorded outcome —
//      a charge is applied exactly once, never twice, never dropped.
//      Query-finished and tick records advance the completed state; the
//      trailing records of an unfinished query become the *replay prefix*.
//   3. The driver re-calls RunTick for every tick from 0. Finished queries
//      are served from the recovered state without touching clients or the
//      meter (a completed round-1 probe is never re-probed). The one query
//      that was mid-flight re-executes with the same forked RNG stream
//      while the recorder verifies each emission against the replay prefix
//      (crashing loudly on divergence) and serves journaled charge
//      outcomes back to the meter; once the prefix is exhausted the run
//      goes live and new records append where the crash cut off.
//
// The caller must re-create the runner with the same queries, meter
// policy, seed, populations, and codecs it used originally — recovery
// fails closed on the mismatches it can detect (seed, meter policy,
// journal/snapshot corruption) and relies on determinism for the rest.
//
// With an empty state_dir the same runner drives the campaign in memory:
// no journal, no snapshots, and nothing to recover — a re-created runner
// re-executes from tick 0, which is deterministic and reaches the same
// results. In-memory shards (federated/shard/shard.h) run on this mode.

#ifndef BITPUSH_PERSIST_RECOVERY_H_
#define BITPUSH_PERSIST_RECOVERY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/privacy_meter.h"
#include "federated/campaign.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "rng/rng.h"

namespace bitpush {

struct DurableCampaignOptions {
  // Directory holding journal.wal and snapshot.bin; created if missing.
  // Empty runs in memory: Open does no I/O, the meter and the campaign
  // journal nothing, and RunTick never snapshots or commits.
  std::string state_dir;
  // Seed of the campaign's root RNG. Recovery refuses a state directory
  // recorded under a different seed.
  uint64_t seed = 0;
  // Snapshot (and truncate the journal) after every N closed ticks;
  // 0 disables automatic snapshots.
  int64_t snapshot_every_ticks = 0;
  // fsync at every journal commit (each round close, each tick close and
  // before each snapshot) and on journal rewrites. Disable only in tests
  // that write many journals.
  bool fsync = true;
  // Crash harness passthrough (JournalWriter::set_crash_after_records):
  // exit with status 137 after this many appended records, losing the
  // ones not yet committed. 0 disables.
  int64_t crash_after_records = 0;
};

struct RecoveryInfo {
  // The state directory held prior state (snapshot or journal records).
  bool recovered = false;
  bool had_snapshot = false;
  // The journal ended mid-frame (the expected crash artifact); the torn
  // bytes were discarded and the clean prefix used.
  bool torn_tail = false;
  // Journal records replayed on top of the snapshot.
  int64_t replayed_records = 0;
  // Fully closed ticks restored; RunTick(t) for t below this serves every
  // query from the recovered state.
  int64_t completed_ticks = 0;
};

// A crash-consistent campaign coordinator. Usage, fresh or recovering:
//
//   DurableCampaignRunner runner(queries, policy, options);
//   std::string error;
//   if (!runner.Open(&error)) { /* corrupt state: fail closed */ }
//   for (int64_t t = 0; t < kTicks; ++t)
//     runner.RunTick(t, populations, codecs);
//
// RunTick must be called for every tick from 0 in order, with the same
// populations and codecs as the original run; recovered ticks replay from
// state instead of contacting clients.
//
// Journal records are group-committed (persist/journal.h) at the three
// points where something derived from them leaves the coordinator: each
// round close (the next round's allocation goes out to clients), the end
// of each RunTick (its results return) and the start of each Snapshot.
class DurableCampaignRunner : private CampaignRecorder,
                              private PrivacyMeter::Journal {
 public:
  // `resilience` is forwarded to the campaign (see MeasurementCampaign).
  // Every retry / hedge / breaker decision is journaled as a
  // kResilienceEvent record, so replay verifies the recovered schedule
  // decision by decision; the breaker's state is snapshot-persisted and
  // rebuilt from the journaled round outcomes in between.
  DurableCampaignRunner(std::vector<CampaignQuery> queries,
                        const MeterPolicy& policy,
                        DurableCampaignOptions options,
                        ResilienceConfig resilience = {});
  ~DurableCampaignRunner() override = default;

  // Loads the snapshot, replays the journal, and prepares the journal for
  // appending. Returns false with `*error` set on I/O failure or on any
  // validation failure (corrupt snapshot/journal, seed or policy
  // mismatch) — fail closed, no partial state. In memory it only installs
  // the campaign recorder and cannot fail.
  bool Open(std::string* error);

  // Runs (or restores) one campaign tick. `tick` must equal next_tick().
  std::vector<CampaignTickResult> RunTick(
      int64_t tick,
      const std::vector<const std::vector<Client>*>& populations,
      const std::vector<FixedPointCodec>& codecs);

  // Writes a snapshot of the current state and truncates the journal.
  // Called automatically every snapshot_every_ticks; may be called
  // manually between ticks. No-op (true) in memory.
  bool Snapshot(std::string* error);

  const PrivacyMeter& meter() const { return meter_; }
  const MeasurementCampaign& campaign() const { return campaign_; }
  const RecoveryInfo& recovery_info() const { return info_; }
  int64_t next_tick() const { return next_tick_; }

  // Recovery-stable per-tick privacy-meter trajectory: entry t holds the
  // ledger totals at the close of tick t. A recovered run reconstructs the
  // samples for restored ticks during journal replay (at each campaign-tick
  // record, i.e. with exactly the charges that preceded that tick's close),
  // so the trajectory is byte-identical to an uninterrupted run's — the
  // deterministic input the privacy-burn-rate alert rule evaluates on.
  struct MeterTickSample {
    int64_t bits_spent = 0;
    int64_t denied_charges = 0;
  };
  const std::vector<MeterTickSample>& meter_by_tick() const {
    return meter_by_tick_;
  }

  // Records currently in the journal file: the validated records kept at
  // Open plus live appends, zeroed when a snapshot truncates the journal.
  // Feeds the journal-growth alert rule.
  int64_t journal_records() const { return journal_records_; }
  // Appended records not yet committed. Zero whenever RunTick or Snapshot
  // returns: a caller may hand on results only while this is zero.
  int64_t uncommitted_records() const {
    return journal_.uncommitted_records();
  }

  // Latest final bit means per value id (snapshot-persisted).
  const std::map<int64_t, std::vector<double>>& bit_means_cache() const {
    return bit_means_cache_;
  }
  // Full protocol-level results of the latest tick's queries that this
  // process executed live (restored queries only have their summarized
  // CampaignTickResult), keyed by (tick, query index). Each RunTick clears
  // it first, so it never holds an earlier tick.
  const std::map<std::pair<int64_t, int64_t>, FederatedQueryResult>&
  full_results() const {
    return full_results_;
  }

 private:
  // CampaignRecorder:
  bool RestoreQueryResult(int64_t tick, size_t query_index,
                          CampaignTickResult* out) override;
  void OnQueryStarted(int64_t tick, size_t query_index,
                      int64_t value_id) override;
  void OnQueryFinished(int64_t tick, size_t query_index,
                       const CampaignTickResult& result,
                       const FederatedQueryResult& outcome) override;
  // QueryRecorder:
  bool RestoreRound(int64_t round_id, RoundOutcome* out) override;
  void OnRoundClosed(int64_t round_id, const RoundOutcome& outcome) override;
  void OnCohortAssigned(int64_t round_id,
                        const std::vector<int64_t>& client_ids) override;
  void OnReportAccepted(int64_t round_id, const BitReport& report) override;
  void OnResilienceEvent(const ResilienceEvent& event) override;
  // PrivacyMeter::Journal:
  std::optional<bool> OnChargeAttempt(int64_t client_id, int64_t value_id,
                                      double epsilon) override;
  void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                bool granted) override;

  // In replay mode, checks the emission against the next prefix record and
  // advances the cursor (aborting on divergence — a recovering coordinator
  // that cannot reproduce its own journal must not limp on). In live mode,
  // appends the record; it becomes durable at the next journal commit.
  void VerifyOrAppend(JournalRecordType type,
                      const std::vector<uint8_t>& payload);
  // Moves the replay cursor to `next`; once the prefix is exhausted,
  // discards it and flips the run live (Snapshot() requires the prefix to
  // be gone, not merely consumed).
  void AdvanceReplay(size_t next);
  // Applies the replayed journal records to the recovered state (step 2 of
  // the recovery model above).
  bool ApplyJournal(const std::vector<JournalRecord>& records,
                    std::string* error);
  bool RewriteJournalFile(const std::vector<JournalRecord>& records,
                          std::string* error);
  // Pads meter_by_tick_ up to (and including) index `tick` with the
  // meter's current totals — called when a tick closes (live) and at each
  // replayed campaign-tick record (recovery). Never overwrites an existing
  // sample, so the replayed values win for restored ticks.
  void RecordMeterSample(int64_t tick);
  bool durable() const { return !options_.state_dir.empty(); }

  MeterPolicy policy_;
  DurableCampaignOptions options_;
  PrivacyMeter meter_;
  MeasurementCampaign campaign_;
  Rng rng_;
  JournalWriter journal_;
  std::string journal_path_;
  std::string snapshot_path_;

  // Replay prefix: journal records of the query that was mid-flight at the
  // crash. live_ flips once the cursor exhausts it.
  std::vector<JournalRecord> prefix_;
  size_t cursor_ = 0;
  bool live_ = true;

  // Recovered + accumulated durable state.
  std::map<std::pair<int64_t, int64_t>, FinishedQueryEntry> finished_;
  std::map<int64_t, std::vector<double>> bit_means_cache_;
  std::map<std::pair<int64_t, int64_t>, FederatedQueryResult> full_results_;

  std::vector<MeterTickSample> meter_by_tick_;
  int64_t journal_records_ = 0;
  int64_t completed_ticks_ = 0;
  // Ticks whose kCampaignTick record predates this process (do not
  // re-append while re-running them).
  int64_t ticks_already_journaled_ = 0;
  int64_t next_tick_ = 0;
  // An automatic snapshot came due at a boundary where the replay prefix
  // was still pending; taken at the first boundary after going live.
  bool snapshot_due_ = false;
  bool open_ = false;
  RecoveryInfo info_;
};

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_RECOVERY_H_
