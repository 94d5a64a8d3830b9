// Crash recovery: snapshot + journal restore into a resumable campaign.
//
// DurableCampaignRunner wraps a MeasurementCampaign with the write-ahead
// journal (persist/journal.h) and periodic snapshots (persist/snapshot.h)
// so that a coordinator killed at *any* instant — mid-round, mid-charge,
// between a snapshot rename and the journal truncation — resumes and
// produces byte-identical results to an uninterrupted run.
//
// The recovery model restores what closed and re-executes what did not:
//
//   1. Load the newest snapshot: privacy-meter ledger, finished-query
//      entries, breaker state, completed-tick count.
//   2. Open validates every journal record on top of it, then applies the
//      finished queries' meter charges (re-applied through the real meter,
//      checking each journaled decision), round outcomes and breaker
//      updates in journal order. It holds the closed rounds of the query
//      that was in flight at the crash — each round's outcome and charges
//      — and discards the charges after the last round, query or tick
//      record: they belong to a round that never closed.
//   3. The driver re-calls RunTick for every tick from 0. Finished queries
//      are served from their entries without touching clients or the meter
//      (a completed round-1 probe is never re-probed). The restored prefix
//      — the ticks below completed_ticks — is read-only: re-running it
//      appends no record, commits nothing and takes no snapshot. The
//      in-flight query re-executes with the same forked RNG streams; each
//      held round is restored in place of running it — its cohort digest
//      checked, its charges applied through the meter — and the first
//      round that never closed runs live from its RNG fork, appending
//      where the kept journal ends.
//
// A finished query has one record, its FinishedQueryEntry
// (persist/snapshot.h): the tick result, the round tallies and the fault
// counters. The live path and journal restore build it the same way, the
// snapshot stores it, and the shard harvest reads it, so a restored tick
// yields the same frame rows as the live one.
//
// The caller must re-create the runner with the same queries, meter
// policy, seed, populations, and codecs it used originally — recovery
// fails closed on the mismatches it can detect (seed, meter policy,
// journal/snapshot corruption), aborts as "recovery divergence" when a
// restored round's cohort or charge decisions differ from the journal's,
// and relies on determinism for the rest.
//
// With an empty state_dir the same runner drives the campaign in memory:
// no journal, no snapshots, and nothing to recover — a re-created runner
// re-executes from tick 0, which is deterministic and reaches the same
// results. In-memory shards (federated/shard/shard.h) run on this mode.

#ifndef BITPUSH_PERSIST_RECOVERY_H_
#define BITPUSH_PERSIST_RECOVERY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
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
  // before each snapshot), on journal rewrites, and at Open on a journal
  // kept as it is (file and directory). Disable only in tests that write
  // many journals.
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
  // Journal records validated on top of the snapshot, the discarded
  // charges of a round that never closed included.
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
// state instead of contacting clients, and write nothing.
//
// Journal records are group-committed (persist/journal.h) at the three
// points where something derived from them leaves the coordinator: each
// round close (the next round's allocation goes out to clients), the end
// of each RunTick (its results return) and the start of each Snapshot.
class DurableCampaignRunner : private CampaignRecorder,
                              private PrivacyMeter::Journal {
 public:
  // `resilience` is forwarded to the campaign (see MeasurementCampaign).
  // Retry and hedge decisions are not journaled: each round's RetryStats
  // ride in its kRoundClosed outcome. The breaker's state is
  // snapshot-persisted and rebuilt from the journaled round outcomes in
  // between.
  DurableCampaignRunner(std::vector<CampaignQuery> queries,
                        const MeterPolicy& policy,
                        DurableCampaignOptions options,
                        ResilienceConfig resilience = {});
  ~DurableCampaignRunner() override = default;

  // Loads the snapshot, restores the journal, and prepares the journal for
  // appending. Returns false with `*error` set on I/O failure or on any
  // validation failure (corrupt snapshot/journal, seed or policy
  // mismatch) — fail closed, no partial state. In memory it only installs
  // the campaign recorder and cannot fail.
  bool Open(std::string* error);

  // Runs (or restores) one campaign tick. `tick` must equal next_tick().
  // A tick below recovery_info().completed_ticks is served from state and
  // leaves the state files as they are.
  std::vector<CampaignTickResult> RunTick(
      int64_t tick,
      const std::vector<const std::vector<Client>*>& populations,
      const std::vector<FixedPointCodec>& codecs);

  // Writes a snapshot of the current state and truncates the journal.
  // Called automatically every snapshot_every_ticks; may be called
  // manually between ticks. No-op (true) in memory, and until a tick past
  // the restored prefix has run: the state is then what Open restored,
  // which is on disk already.
  bool Snapshot(std::string* error);

  const PrivacyMeter& meter() const { return meter_; }
  const MeasurementCampaign& campaign() const { return campaign_; }
  const RecoveryInfo& recovery_info() const { return info_; }
  int64_t next_tick() const { return next_tick_; }

  // Recovery-stable per-tick privacy-meter trajectory: entry t holds the
  // ledger totals at the close of tick t. A recovered run reconstructs the
  // samples for restored ticks at Open (at each campaign-tick record, i.e.
  // with exactly the charges that preceded that tick's close), so the
  // trajectory is byte-identical to an uninterrupted run's — the
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

  // The entry of query `query_index` at `tick`: run by this process or
  // restored from the snapshot or the journal. Null until that query has
  // finished. In memory too, where it is the only record kept.
  const FinishedQueryEntry* finished_query(int64_t tick,
                                           size_t query_index) const;

 private:
  // A closed round and the charges journaled before it, as Open reads
  // them. The in-flight query's are held until RestoreRound applies them.
  struct HeldRound {
    RoundClosedRecord closed;
    std::vector<MeterChargeRecord> charges;
  };

  // CampaignRecorder:
  bool RestoreQueryResult(int64_t tick, size_t query_index,
                          CampaignTickResult* out) override;
  void OnQueryStarted(int64_t tick, size_t query_index,
                      int64_t value_id) override;
  void OnQueryFinished(int64_t tick, size_t query_index,
                       const CampaignTickResult& result,
                       FederatedQueryResult outcome) override;
  // QueryRecorder:
  bool RestoreRound(int64_t round_id, const std::vector<int64_t>& cohort,
                    RoundOutcome* out) override;
  void OnRoundClosed(int64_t round_id, const std::vector<int64_t>& cohort,
                     const RoundOutcome& outcome) override;
  // PrivacyMeter::Journal:
  void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                bool granted) override;

  // Appends one record; it becomes durable at the next journal commit.
  void Append(JournalRecordType type, std::span<const uint8_t> payload);
  // Validates the journal records and applies them to the recovered state
  // (step 2 of the recovery model above). Sets `*keep` to the number of
  // leading records the journal keeps.
  bool ApplyJournal(const std::vector<JournalRecord>& records, size_t* keep,
                    std::string* error);
  // Applies journaled charges through the meter; false at the first whose
  // decision differs from the journaled one.
  bool ApplyCharges(const std::vector<MeterChargeRecord>& charges);
  // Pads meter_by_tick_ up to (and including) index `tick` with the
  // meter's current totals — called when a tick closes (live) and at each
  // restored campaign-tick record (Open). Never overwrites an existing
  // sample, so the restored values win for restored ticks.
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

  // The closed rounds of the query in flight at the crash, in round order.
  std::deque<HeldRound> held_rounds_;
  // The query executing now; its kRoundClosed records carry these.
  int64_t query_tick_ = 0;
  int64_t query_index_ = 0;

  // Every finished query, keyed by (tick, query index): recovered, then
  // accumulated.
  std::map<std::pair<int64_t, int64_t>, FinishedQueryEntry> finished_;

  std::vector<MeterTickSample> meter_by_tick_;
  int64_t journal_records_ = 0;
  // Closed ticks: restored at Open, then advanced by each live tick. Never
  // lowered while the restored prefix re-runs.
  int64_t completed_ticks_ = 0;
  int64_t next_tick_ = 0;
  bool open_ = false;
  RecoveryInfo info_;
};

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_RECOVERY_H_
