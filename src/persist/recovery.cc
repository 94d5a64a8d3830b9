#include "persist/recovery.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "federated/obs_hooks.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/file.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Replay-progress counters are kVolatile by nature: an uninterrupted run
// replays nothing, so they can never match across a clean/recovered pair.
void ObserveRecovery(const RecoveryInfo& info) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* opens = registry.GetCounter(
      "bitpush_recovery_opens_total", "Durable runner opens.",
      obs::Determinism::kVolatile);
  static obs::Counter* recovered = registry.GetCounter(
      "bitpush_recovery_recovered_total",
      "Opens that found prior durable state.", obs::Determinism::kVolatile);
  static obs::Counter* replayed = registry.GetCounter(
      "bitpush_recovery_replayed_records_total",
      "Journal records validated and replayed on open.",
      obs::Determinism::kVolatile);
  static obs::Counter* torn = registry.GetCounter(
      "bitpush_recovery_torn_tails_total",
      "Opens that discarded a torn journal tail.",
      obs::Determinism::kVolatile);
  opens->Increment();
  if (info.recovered) recovered->Increment();
  replayed->Add(info.replayed_records);
  if (info.torn_tail) torn->Increment();
}

// The kRoundClosed cohort digest: 64-bit FNV-1a over the little-endian
// bytes of the round's partition indices, in order.
uint64_t CohortDigest(const std::vector<int64_t>& cohort) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const int64_t index : cohort) {
    uint64_t word = static_cast<uint64_t>(index);
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ (word & 0xff)) * 0x100000001b3ULL;
      word >>= 8;
    }
  }
  return digest;
}

// Round outcomes serve full_results(), whose reader needs the tallies, not
// the per-client id lists.
void DropIdLists(RoundOutcome* outcome) {
  outcome->assigned_clients = {};
  outcome->crashed_clients = {};
  outcome->succeeded_client_ids = {};
  outcome->failed_client_ids = {};
}

}  // namespace

DurableCampaignRunner::DurableCampaignRunner(
    std::vector<CampaignQuery> queries, const MeterPolicy& policy,
    DurableCampaignOptions options, ResilienceConfig resilience)
    : policy_(policy),
      options_(std::move(options)),
      meter_(policy),
      campaign_(std::move(queries), &meter_, resilience),
      rng_(options_.seed) {}

bool DurableCampaignRunner::Open(std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK(!open_) << "runner already open";
  if (!durable()) {
    // In memory there is no state to load and no journal to feed: the
    // recorder hooks only keep full_results() and the bit-means cache, and
    // the meter runs without a journal.
    campaign_.set_recorder(this);
    open_ = true;
    return true;
  }
  obs::Span span("recovery.open", "persist");

  std::error_code ec;
  std::filesystem::create_directories(options_.state_dir, ec);
  if (ec) {
    *error = "create state dir " + options_.state_dir + ": " + ec.message();
    return false;
  }
  journal_path_ = JournalPath(options_.state_dir);
  snapshot_path_ = SnapshotPath(options_.state_dir);

  CoordinatorSnapshot snapshot;
  bool found = false;
  if (!LoadSnapshotFile(snapshot_path_, &snapshot, &found, error)) {
    return false;
  }
  uint64_t expected_seq = 0;
  if (found) {
    info_.had_snapshot = true;
    if (snapshot.base_seed != options_.seed) {
      *error = "state directory was recorded under a different seed";
      return false;
    }
    PrivacyMeter restored(policy_);
    size_t offset = 0;
    if (!PrivacyMeter::DecodeFrom(snapshot.meter_blob, &offset, &restored) ||
        offset != snapshot.meter_blob.size()) {
      *error = "snapshot meter ledger failed validation";
      return false;
    }
    if (!(restored.policy() == policy_)) {
      *error = "snapshot meter policy does not match this campaign";
      return false;
    }
    meter_ = std::move(restored);
    for (const FinishedQueryEntry& entry : snapshot.finished) {
      if (entry.query_index >=
          static_cast<int64_t>(campaign_.queries().size())) {
        *error = "snapshot references an unknown query index";
        return false;
      }
      finished_.emplace(std::make_pair(entry.tick, entry.query_index), entry);
    }
    for (const BitMeansEntry& entry : snapshot.bit_means) {
      bit_means_cache_[entry.value_id] = entry.means;
    }
    if (!snapshot.health_blob.empty()) {
      HealthTracker* health = campaign_.mutable_health();
      if (health == nullptr) {
        *error = "snapshot has breaker state but the campaign has no breaker";
        return false;
      }
      size_t health_offset = 0;
      if (!HealthTracker::DecodeFrom(snapshot.health_blob, &health_offset,
                                     health) ||
          health_offset != snapshot.health_blob.size()) {
        *error = "snapshot breaker state failed validation";
        return false;
      }
    }
    completed_ticks_ = snapshot.completed_ticks;
    expected_seq = snapshot.journal_next_seq;
  }

  JournalReadResult journal;
  if (!ReadJournal(journal_path_, expected_seq, &journal, error)) {
    return false;
  }
  info_.torn_tail = journal.torn_tail;
  info_.replayed_records = static_cast<int64_t>(journal.records.size());
  info_.recovered = found || !journal.records.empty() || journal.torn_tail;
  size_t keep = 0;
  if (!ApplyJournal(journal.records, &keep, error)) return false;
  const size_t discarded = journal.records.size() - keep;
  journal.records.resize(keep);
  journal_records_ = static_cast<int64_t>(keep);

  // Appends resume after the last kept record, so the file must hold
  // exactly the kept records. Most often it already does, and it is kept
  // as it is. Otherwise it is rewritten to them: that drops the torn tail,
  // any stale pre-snapshot prefix and the charges of a round that never
  // closed, so a later recovery never re-parses them, and it creates a
  // missing file. The rewrite is atomic: the old journal stays durable and
  // intact until the rewritten bytes are, so a crash inside it cannot lose
  // journaled meter charges.
  const bool exact = journal.found && !journal.torn_tail &&
                     journal.stale_records == 0 && discarded == 0;
  if (!exact && !ReplaceJournal(journal_path_, journal.records,
                                options_.fsync, error)) {
    return false;
  }
  const uint64_t next_seq =
      journal.records.empty() ? expected_seq : journal.records.back().seq + 1;
  if (!journal_.Open(journal_path_, next_seq, error)) return false;
  journal_.set_fsync(options_.fsync);
  journal_.set_crash_after_records(options_.crash_after_records);
  // A kept file is made as durable as a rewrite would have made it.
  if (exact && options_.fsync) {
    if (!journal_.Sync()) {
      *error = "fsync journal " + journal_path_ + ": " + std::strerror(errno);
      return false;
    }
    if (!SyncParentDir(journal_path_, error)) return false;
  }

  meter_.set_journal(this);
  campaign_.set_recorder(this);
  ticks_already_journaled_ = completed_ticks_;
  info_.completed_ticks = completed_ticks_;
  rng_ = Rng(options_.seed);
  open_ = true;
  ObserveRecovery(info_);
  // Restore milestone for the flight recorder. kVolatile by nature: an
  // uninterrupted run opens with nothing to restore, so this event can
  // never match across a clean/recovered pair.
  if (info_.recovered) {
    obs::EventArgs args;
    args.detail = "journal restored: replayed=" +
                  std::to_string(info_.replayed_records) +
                  " completed_ticks=" + std::to_string(completed_ticks_) +
                  " held_rounds=" + std::to_string(held_rounds_.size()) +
                  " discarded=" + std::to_string(discarded) +
                  (info_.had_snapshot ? " snapshot" : "") +
                  (info_.torn_tail ? " torn_tail" : "");
    obs::EmitEvent(obs::EventType::kReplayMilestone,
                   obs::Determinism::kVolatile, std::move(args));
  }
  span.AddNumeric("replayed_records",
                  static_cast<double>(info_.replayed_records));
  span.AddString("recovered", info_.recovered ? "yes" : "no");
  return true;
}

bool DurableCampaignRunner::ApplyJournal(
    const std::vector<JournalRecord>& records, size_t* keep,
    std::string* error) {
  // The closed rounds of the query being read, and the charges since the
  // last round, query or tick record. Charges belong to the round whose
  // close follows them; a finished query's rounds are applied at its
  // kQueryFinished record, in journal order — which is execution order —
  // so the ledger absorbs every charge exactly once, the breaker rebuilds
  // transition by transition, and the flight recorder's stable events
  // (meter announcements, round outcomes, breaker transitions) land in the
  // same relative order a live run produced them. Pre-snapshot history
  // came in with the snapshot's health blob (round metrics truncated with
  // the journal are gone — the deterministic-metrics contract is scoped to
  // journal-only recovery; see docs/OBSERVABILITY.md).
  std::vector<HeldRound> rounds;
  std::vector<MeterChargeRecord> charges;
  HealthTracker* health = campaign_.mutable_health();
  const auto known_query = [&](int64_t query_index, int64_t value_id) {
    return query_index < static_cast<int64_t>(campaign_.queries().size()) &&
           campaign_.queries()[static_cast<size_t>(query_index)].value_id ==
               value_id;
  };
  *keep = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    switch (record.type) {
      case JournalRecordType::kMeterCharge: {
        MeterChargeRecord charge;
        if (!DecodeMeterChargeRecord(record.payload, &charge)) {
          *error = "journal: malformed meter-charge record";
          return false;
        }
        charges.push_back(charge);
        // Kept only once a round, query or tick record follows it.
        continue;
      }
      case JournalRecordType::kRoundClosed: {
        HeldRound round;
        if (!DecodeRoundClosedRecord(record.payload, &round.closed)) {
          *error = "journal: malformed round-closed record";
          return false;
        }
        const RoundClosedRecord& closed = round.closed;
        if (closed.tick != completed_ticks_ ||
            !known_query(closed.query_index, closed.value_id) ||
            finished_.contains({closed.tick, closed.query_index})) {
          *error = "journal: round-closed record contradicts the campaign";
          return false;
        }
        if (closed.round_id != static_cast<int64_t>(rounds.size()) + 1 ||
            closed.round_id > 2 ||
            (!rounds.empty() &&
             rounds.front().closed.query_index != closed.query_index)) {
          *error = "journal: round closed out of order";
          return false;
        }
        round.charges = std::move(charges);
        charges.clear();
        rounds.push_back(std::move(round));
        break;
      }
      case JournalRecordType::kQueryFinished: {
        QueryFinishedRecord finished;
        if (!DecodeQueryFinishedRecord(record.payload, &finished) ||
            !charges.empty() || finished.tick != completed_ticks_ ||
            finished.query_index >=
                static_cast<int64_t>(campaign_.queries().size()) ||
            (!rounds.empty() &&
             rounds.front().closed.query_index != finished.query_index)) {
          *error = "journal: malformed or misplaced query-finished record";
          return false;
        }
        FederatedQueryResult restored;
        for (HeldRound& round : rounds) {
          // The recomputed decisions must match what was journaled —
          // anything else means the ledger and journal disagree, and a
          // coordinator that cannot trust its ledger must stop.
          if (!ApplyCharges(round.charges)) {
            *error = "journal: a meter charge diverged from its record";
            return false;
          }
          RoundOutcome& outcome = round.closed.outcome;
          ObserveRoundOutcome(outcome);
          if (health != nullptr) {
            health->BeginRound();
            health->ObserveRound(round.closed.round_id,
                                 outcome.succeeded_client_ids,
                                 outcome.failed_client_ids);
          }
          DropIdLists(&outcome);
          (round.closed.round_id == 1 ? restored.round1 : restored.round2) =
              std::move(outcome);
        }
        rounds.clear();
        FinishedQueryEntry entry;
        entry.tick = finished.tick;
        entry.query_index = finished.query_index;
        entry.result = finished.result;
        entry.final_bit_means = finished.final_bit_means;
        const auto key = std::make_pair(entry.tick, entry.query_index);
        if (!finished_.emplace(key, entry).second) {
          *error = "journal: duplicate query-finished record";
          return false;
        }
        journaled_results_[key] = std::move(restored);
        if (entry.result.status == CampaignTickResult::Status::kRan &&
            !entry.final_bit_means.empty()) {
          bit_means_cache_[campaign_.queries()[static_cast<size_t>(
                               entry.query_index)]
                               .value_id] = entry.final_bit_means;
        }
        break;
      }
      case JournalRecordType::kCampaignTick: {
        CampaignTickRecord tick;
        if (!DecodeCampaignTickRecord(record.payload, &tick) ||
            !rounds.empty() || !charges.empty()) {
          *error = "journal: malformed or misplaced campaign-tick record";
          return false;
        }
        if (tick.tick != completed_ticks_) {
          *error = "journal: campaign ticks closed out of order";
          return false;
        }
        completed_ticks_ = tick.tick + 1;
        // Sample the meter at the tick close, before any later records
        // mutate it — the recovery-stable trajectory meter_by_tick().
        RecordMeterSample(tick.tick);
        break;
      }
    }
    *keep = i + 1;
  }
  // The query in flight at the crash: RestoreRound applies its closed
  // rounds when the re-execution reaches them. The charges after its last
  // closed round are dropped with the records the journal does not keep;
  // that round re-executes from its RNG fork.
  held_rounds_.assign(std::make_move_iterator(rounds.begin()),
                      std::make_move_iterator(rounds.end()));
  if (health != nullptr) ObserveBreakerState(*health);
  return true;
}

bool DurableCampaignRunner::ApplyCharges(
    const std::vector<MeterChargeRecord>& charges) {
  for (const MeterChargeRecord& charge : charges) {
    if (meter_.TryChargeBit(charge.client_id, charge.value_id,
                            charge.epsilon) != charge.granted) {
      return false;
    }
  }
  return true;
}

std::vector<CampaignTickResult> DurableCampaignRunner::RunTick(
    int64_t tick,
    const std::vector<const std::vector<Client>*>& populations,
    const std::vector<FixedPointCodec>& codecs) {
  BITPUSH_CHECK(open_) << "call Open() first";
  BITPUSH_CHECK_EQ(tick, next_tick_)
      << "RunTick must be called for every tick from 0 in order";

  full_results_.clear();
  std::vector<CampaignTickResult> results =
      campaign_.RunTick(tick, populations, codecs, rng_);

  // The in-flight query (if any) lived at tick info_.completed_ticks, so by
  // the end of that tick the re-execution must have restored every held
  // round; earlier ticks are fully restored and leave them alone.
  if (tick >= info_.completed_ticks) {
    BITPUSH_CHECK(held_rounds_.empty())
        << "recovery divergence: a journaled round was not re-executed";
  }

  completed_ticks_ = tick + 1;
  ++next_tick_;
  // No-op for ticks already sampled at Open; the tick that was in flight
  // at a crash gets its sample here, after its re-execution completed —
  // the same totals the uninterrupted run closed it with.
  RecordMeterSample(tick);
  if (!durable()) return results;

  if (tick >= ticks_already_journaled_) {
    std::vector<uint8_t> payload;
    EncodeCampaignTickRecord(CampaignTickRecord{tick}, &payload);
    Append(JournalRecordType::kCampaignTick, payload);
  }
  // A snapshot that comes due while journaled rounds are still held (at a
  // restored tick before the in-flight one) is skipped: it would persist a
  // ledger without their charges.
  if (options_.snapshot_every_ticks > 0 &&
      completed_ticks_ % options_.snapshot_every_ticks == 0 &&
      held_rounds_.empty()) {
    std::string error;
    BITPUSH_CHECK(Snapshot(&error)) << "snapshot failed: " << error;
  }
  // The results leave the coordinator on return.
  BITPUSH_CHECK(journal_.Commit()) << "journal commit failed";
  return results;
}

bool DurableCampaignRunner::Snapshot(std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK(open_) << "call Open() first";
  if (!durable()) return true;
  BITPUSH_CHECK(held_rounds_.empty())
      << "snapshots are only taken once the journaled rounds are restored";
  // The snapshot covers every appended record, so they must be durable
  // before it is.
  if (!journal_.Commit()) {
    *error = "commit journal " + journal_path_ + ": " + std::strerror(errno);
    return false;
  }

  CoordinatorSnapshot snapshot;
  snapshot.base_seed = options_.seed;
  snapshot.journal_next_seq = journal_.next_seq();
  snapshot.completed_ticks = completed_ticks_;
  {
    obs::Span encode("snapshot.encode", "persist");
    meter_.EncodeTo(&snapshot.meter_blob);
    encode.AddNumeric("bytes", static_cast<double>(snapshot.meter_blob.size()));
  }
  snapshot.finished.reserve(finished_.size());
  for (const auto& [key, entry] : finished_) snapshot.finished.push_back(entry);
  snapshot.bit_means.reserve(bit_means_cache_.size());
  for (const auto& [value_id, means] : bit_means_cache_) {
    snapshot.bit_means.push_back(BitMeansEntry{value_id, means});
  }
  if (const HealthTracker* health = campaign_.health(); health != nullptr) {
    health->EncodeTo(&snapshot.health_blob);
  }
  if (!WriteSnapshotFile(snapshot_path_, snapshot, error)) return false;

  // The snapshot now covers every journaled record: truncate the journal.
  // A crash between the rename above and this truncation is benign — the
  // leftover records all predate snapshot.journal_next_seq and the next
  // recovery skips them as stale.
  journal_.Close();
  if (!ReplaceJournal(journal_path_, {}, options_.fsync, error)) return false;
  journal_records_ = 0;
  return journal_.Open(journal_path_, snapshot.journal_next_seq, error);
}

void DurableCampaignRunner::Append(JournalRecordType type,
                                   std::span<const uint8_t> payload) {
  BITPUSH_CHECK(journal_.Append(type, payload)) << "journal append failed";
  ++journal_records_;
}

void DurableCampaignRunner::RecordMeterSample(int64_t tick) {
  const MeterTickSample sample{meter_.total_bits(), meter_.denied_charges()};
  while (static_cast<int64_t>(meter_by_tick_.size()) <= tick) {
    meter_by_tick_.push_back(sample);
  }
}

bool DurableCampaignRunner::RestoreQueryResult(int64_t tick,
                                               size_t query_index,
                                               CampaignTickResult* out) {
  const auto key = std::make_pair(tick, static_cast<int64_t>(query_index));
  const auto it = finished_.find(key);
  if (it == finished_.end()) return false;
  *out = it->second.result;
  const auto journaled = journaled_results_.find(key);
  if (journaled != journaled_results_.end()) {
    full_results_[key] = std::move(journaled->second);
    journaled_results_.erase(journaled);
  }
  return true;
}

void DurableCampaignRunner::OnQueryStarted(int64_t tick, size_t query_index,
                                           int64_t /*value_id*/) {
  query_tick_ = tick;
  query_index_ = static_cast<int64_t>(query_index);
}

void DurableCampaignRunner::OnQueryFinished(int64_t tick, size_t query_index,
                                            const CampaignTickResult& result,
                                            FederatedQueryResult outcome) {
  const auto key = std::make_pair(tick, static_cast<int64_t>(query_index));
  DropIdLists(&outcome.round1);
  DropIdLists(&outcome.round2);
  const std::vector<double>& final_bit_means =
      (full_results_[key] = std::move(outcome)).final_bit_means;
  if (result.status == CampaignTickResult::Status::kRan &&
      !final_bit_means.empty()) {
    bit_means_cache_[campaign_.queries()[query_index].value_id] =
        final_bit_means;
  }
  if (!durable()) return;

  QueryFinishedRecord record;
  record.tick = tick;
  record.query_index = static_cast<int64_t>(query_index);
  record.result = result;
  record.final_bit_means = final_bit_means;
  std::vector<uint8_t> payload;
  EncodeQueryFinishedRecord(record, &payload);
  Append(JournalRecordType::kQueryFinished, payload);

  FinishedQueryEntry entry;
  entry.tick = tick;
  entry.query_index = static_cast<int64_t>(query_index);
  entry.result = result;
  entry.final_bit_means = final_bit_means;
  BITPUSH_CHECK(finished_.emplace(key, entry).second)
      << "query finished twice";
}

bool DurableCampaignRunner::RestoreRound(int64_t round_id,
                                         const std::vector<int64_t>& cohort,
                                         RoundOutcome* out) {
  if (held_rounds_.empty()) return false;
  // The round closed before the crash: restore it instead of re-running
  // it — no client is asked for a second bit. The re-execution must have
  // reached the same round over the same cohort.
  HeldRound& held = held_rounds_.front();
  BITPUSH_CHECK(held.closed.tick == query_tick_ &&
                held.closed.query_index == query_index_ &&
                held.closed.round_id == round_id &&
                held.closed.cohort_digest == CohortDigest(cohort))
      << "recovery divergence: round " << round_id << " of tick "
      << query_tick_ << " query " << query_index_
      << " does not match its journal record";
  // Its charges are journaled already: apply them with the journal hook
  // detached. The meter's events land where the live round emitted them,
  // ahead of the round's outcome.
  meter_.set_journal(nullptr);
  const bool reproduced = ApplyCharges(held.charges);
  meter_.set_journal(this);
  BITPUSH_CHECK(reproduced)
      << "recovery divergence: a meter charge of round " << round_id
      << " of tick " << query_tick_ << " query " << query_index_
      << " does not reproduce its journaled decision";
  *out = std::move(held.closed.outcome);
  held_rounds_.pop_front();
  return true;
}

void DurableCampaignRunner::OnRoundClosed(int64_t round_id,
                                          const std::vector<int64_t>& cohort,
                                          const RoundOutcome& outcome) {
  if (!durable()) return;
  RoundClosedRecord record;
  record.tick = query_tick_;
  record.query_index = query_index_;
  record.value_id =
      campaign_.queries()[static_cast<size_t>(query_index_)].value_id;
  record.round_id = round_id;
  record.cohort_digest = CohortDigest(cohort);
  record.outcome = outcome;
  std::vector<uint8_t> payload;
  EncodeRoundClosedRecord(record, &payload);
  Append(JournalRecordType::kRoundClosed, payload);
  // The next round's allocation is derived from this one and goes out to
  // clients: the round's charges must be durable first.
  BITPUSH_CHECK(journal_.Commit()) << "journal commit failed";
}

void DurableCampaignRunner::OnCharge(int64_t client_id, int64_t value_id,
                                     double epsilon, bool granted) {
  // Once per report: encoded on the stack and copied once, into the
  // journal's buffer.
  MeterChargePayload payload;
  EncodeMeterChargeRecord(
      MeterChargeRecord{client_id, value_id, epsilon, granted}, &payload);
  Append(JournalRecordType::kMeterCharge, payload);
}

}  // namespace bitpush
