#include "persist/recovery.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "federated/obs_hooks.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

constexpr const char* kJournalFile = "journal.wal";
constexpr const char* kSnapshotFile = "snapshot.bin";

// NaN-safe: a journaled denial can carry the invalid epsilon it was denied
// for, and replay must still match it against the re-executed value.
bool SameDoubleBits(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
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
  journal_path_ = options_.state_dir + "/" + kJournalFile;
  snapshot_path_ = options_.state_dir + "/" + kSnapshotFile;

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
  if (!ApplyJournal(journal.records, error)) return false;
  journal_records_ = static_cast<int64_t>(journal.records.size());

  // Rewrite the file to exactly the validated records: drops the torn tail
  // and any stale pre-snapshot prefix so a later recovery never re-parses
  // them.
  if (!RewriteJournalFile(journal.records, error)) return false;
  if (!journal_.Open(journal_path_, journal.next_seq, error)) return false;
  journal_.set_fsync(options_.fsync);
  journal_.set_crash_after_records(options_.crash_after_records);

  meter_.set_journal(this);
  campaign_.set_recorder(this);
  cursor_ = 0;
  live_ = prefix_.empty();
  ticks_already_journaled_ = completed_ticks_;
  info_.completed_ticks = completed_ticks_;
  rng_ = Rng(options_.seed);
  open_ = true;
  ObserveRecovery(info_);
  // Replay milestone for the flight recorder. kVolatile by nature: an
  // uninterrupted run opens with nothing to replay, so this event can
  // never match across a clean/recovered pair.
  if (info_.recovered) {
    obs::EventArgs args;
    args.detail = "journal replay complete: replayed=" +
                  std::to_string(info_.replayed_records) +
                  " completed_ticks=" + std::to_string(completed_ticks_) +
                  " pending_prefix=" + std::to_string(prefix_.size()) +
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
    const std::vector<JournalRecord>& records, std::string* error) {
  // Trailing records of an unfinished query become the replay prefix.
  size_t prefix_start = records.size();
  bool in_query = false;
  QueryStartedRecord current_query;
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    switch (record.type) {
      case JournalRecordType::kQueryStarted: {
        QueryStartedRecord started;
        if (!DecodeQueryStartedRecord(record.payload, &started) || in_query) {
          *error = "journal: malformed or misplaced query-started record";
          return false;
        }
        if (started.tick != completed_ticks_ ||
            started.query_index >=
                static_cast<int64_t>(campaign_.queries().size()) ||
            campaign_.queries()[static_cast<size_t>(started.query_index)]
                    .value_id != started.value_id) {
          *error = "journal: query-started record contradicts the campaign";
          return false;
        }
        in_query = true;
        current_query = started;
        prefix_start = i;
        break;
      }
      case JournalRecordType::kCohortAssigned:
      case JournalRecordType::kReportAccepted:
      case JournalRecordType::kRoundClosed: {
        // Contextual records of the in-flight query; validated here,
        // consumed (or verified against) during re-execution.
        if (!in_query) {
          *error = "journal: round record outside any query";
          return false;
        }
        bool valid = false;
        if (record.type == JournalRecordType::kCohortAssigned) {
          CohortAssignedRecord decoded;
          valid = DecodeCohortAssignedRecord(record.payload, &decoded);
        } else if (record.type == JournalRecordType::kReportAccepted) {
          ReportAcceptedRecord decoded;
          valid = DecodeReportAcceptedRecord(record.payload, &decoded);
        } else {
          RoundClosedRecord decoded;
          valid = DecodeRoundClosedRecord(record.payload, &decoded);
        }
        if (!valid) {
          *error = "journal: malformed round record";
          return false;
        }
        break;
      }
      case JournalRecordType::kMeterCharge: {
        MeterChargeRecord charge;
        if (!DecodeMeterChargeRecord(record.payload, &charge) || !in_query) {
          *error = "journal: malformed or misplaced meter-charge record";
          return false;
        }
        // Validated here; re-applied through the real meter in the
        // in-order replay pass below.
        break;
      }
      case JournalRecordType::kQueryFinished: {
        QueryFinishedRecord finished;
        if (!DecodeQueryFinishedRecord(record.payload, &finished) ||
            !in_query || finished.tick != current_query.tick ||
            finished.query_index != current_query.query_index) {
          *error = "journal: malformed or misplaced query-finished record";
          return false;
        }
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
        if (entry.result.status == CampaignTickResult::Status::kRan &&
            !entry.final_bit_means.empty()) {
          bit_means_cache_[current_query.value_id] = entry.final_bit_means;
        }
        in_query = false;
        prefix_start = records.size();
        break;
      }
      case JournalRecordType::kCampaignTick: {
        CampaignTickRecord tick;
        if (!DecodeCampaignTickRecord(record.payload, &tick) || in_query) {
          *error = "journal: malformed or misplaced campaign-tick record";
          return false;
        }
        if (tick.tick != completed_ticks_) {
          *error = "journal: campaign ticks closed out of order";
          return false;
        }
        completed_ticks_ = tick.tick + 1;
        prefix_start = records.size();
        break;
      }
      case JournalRecordType::kResilienceEvent: {
        // Contextual, like the round records: a decision the resilience
        // layer made inside the in-flight query. Validated here; the
        // re-execution re-derives it and verifies byte equality.
        ResilienceEventRecord event;
        if (!DecodeResilienceEventRecord(record.payload, &event) ||
            !in_query) {
          *error = "journal: malformed or misplaced resilience-event record";
          return false;
        }
        break;
      }
    }
  }
  prefix_.assign(records.begin() + static_cast<ptrdiff_t>(prefix_start),
                 records.end());

  // In-order replay of the completed region (everything before the replay
  // prefix). Meter charges and round closes are re-applied in journal
  // order — which is execution order — so the ledger absorbs every charge
  // exactly once, the breaker rebuilds transition by transition, and the
  // flight recorder's stable events (meter announcements, round outcomes,
  // breaker transitions) land in the same relative order a live run
  // produced them. Rounds of *finished* queries never re-execute
  // (RestoreQueryResult serves their summaries), so this pass is their
  // only observation point; the in-flight query's rounds — the replay
  // prefix — are applied by the round layer during re-execution, and
  // pre-snapshot history came in with the snapshot's health blob (round
  // metrics truncated with the journal are gone — the
  // deterministic-metrics contract is scoped to journal-only recovery;
  // see docs/OBSERVABILITY.md).
  HealthTracker* health = campaign_.mutable_health();
  for (size_t i = 0; i < prefix_start; ++i) {
    const JournalRecord& record = records[i];
    switch (record.type) {
      case JournalRecordType::kMeterCharge: {
        MeterChargeRecord charge;
        BITPUSH_CHECK(DecodeMeterChargeRecord(record.payload, &charge));
        // The recomputed decision must match what was journaled — anything
        // else means the ledger and journal disagree, and a coordinator
        // that cannot trust its ledger must stop.
        const bool granted = meter_.TryChargeBit(
            charge.client_id, charge.value_id, charge.epsilon);
        if (granted != charge.granted) {
          *error = "journal: meter replay diverged from recorded outcome";
          return false;
        }
        break;
      }
      case JournalRecordType::kRoundClosed: {
        RoundClosedRecord closed;
        BITPUSH_CHECK(DecodeRoundClosedRecord(record.payload, &closed));
        ObserveRoundOutcome(closed.outcome);
        if (health != nullptr) {
          health->BeginRound();
          health->ObserveRound(closed.round_id,
                               closed.outcome.succeeded_client_ids,
                               closed.outcome.failed_client_ids,
                               /*recorder=*/nullptr);
        }
        break;
      }
      case JournalRecordType::kCampaignTick: {
        CampaignTickRecord tick;
        BITPUSH_CHECK(DecodeCampaignTickRecord(record.payload, &tick));
        // Sample the meter at the tick close, before any later records
        // mutate it — the recovery-stable trajectory meter_by_tick().
        RecordMeterSample(tick.tick);
        break;
      }
      default:
        break;
    }
  }

  // Replay-prefix charges: the in-flight query's journaled meter activity.
  // The ledger must absorb them now (they are durable decisions), but
  // their flight-recorder announcements are suppressed — the re-execution
  // will be served these same outcomes through OnChargeAttempt, and the
  // events are emitted there, at the position a live run emitted them.
  meter_.set_replay_quiet(true);
  for (size_t i = prefix_start; i < records.size(); ++i) {
    if (records[i].type != JournalRecordType::kMeterCharge) continue;
    MeterChargeRecord charge;
    BITPUSH_CHECK(DecodeMeterChargeRecord(records[i].payload, &charge));
    const bool granted = meter_.TryChargeBit(charge.client_id,
                                             charge.value_id, charge.epsilon);
    if (granted != charge.granted) {
      meter_.set_replay_quiet(false);
      *error = "journal: meter replay diverged from recorded outcome";
      return false;
    }
  }
  meter_.set_replay_quiet(false);

  if (health != nullptr) ObserveBreakerState(*health);
  return true;
}

bool DurableCampaignRunner::RewriteJournalFile(
    const std::vector<JournalRecord>& records, std::string* error) {
  std::vector<uint8_t> bytes;
  for (const JournalRecord& record : records) {
    AppendJournalFrame(record.type, record.seq, record.payload, &bytes);
  }
  // Temp sibling + fsync + rename, the WriteSnapshotFile pattern: the old
  // journal stays durable and intact until the rewritten bytes are. An
  // in-place truncate would destroy validated records before their
  // replacements reached disk, so a crash inside this window could lose
  // journaled meter charges.
  const std::string temp_path = journal_path_ + ".tmp";
  std::FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    *error = "rewrite journal " + temp_path + ": " + std::strerror(errno);
    return false;
  }
  // An empty record set is legal (a journal rewritten down to nothing) and
  // an empty vector's data() may be null, which fwrite declares nonnull.
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = wrote && std::fflush(file) == 0;
  const bool synced = flushed && (!options_.fsync || fsync(fileno(file)) == 0);
  std::fclose(file);
  if (!synced) {
    *error = "rewrite journal " + temp_path + ": " + std::strerror(errno);
    std::remove(temp_path.c_str());
    return false;
  }
  if (std::rename(temp_path.c_str(), journal_path_.c_str()) != 0) {
    *error = "rename journal " + journal_path_ + ": " + std::strerror(errno);
    std::remove(temp_path.c_str());
    return false;
  }
  if (options_.fsync && !SyncParentDir(journal_path_, error)) return false;
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
  // the end of that tick the re-execution must have consumed every replay
  // record; earlier ticks are fully restored and leave the prefix alone.
  if (tick >= info_.completed_ticks) {
    BITPUSH_CHECK(live_)
        << "recovery divergence: replay prefix not fully consumed";
  }

  completed_ticks_ = tick + 1;
  ++next_tick_;
  // No-op for ticks already sampled during journal replay; the tick that
  // was in flight at a crash gets its sample here, after its re-execution
  // completed — the same totals the uninterrupted run closed it with.
  RecordMeterSample(tick);
  if (!durable()) return results;

  if (tick >= ticks_already_journaled_) {
    std::vector<uint8_t> payload;
    EncodeCampaignTickRecord(CampaignTickRecord{tick}, &payload);
    VerifyOrAppend(JournalRecordType::kCampaignTick, payload);
  }
  if (options_.snapshot_every_ticks > 0 &&
      completed_ticks_ % options_.snapshot_every_ticks == 0) {
    snapshot_due_ = true;
  }
  // A snapshot that comes due at a restored-tick boundary (the replay
  // prefix still pending) is deferred to the first boundary after the run
  // goes live — snapshotting mid-replay would have to persist a state the
  // re-execution has not reproduced yet.
  if (snapshot_due_ && live_) {
    std::string error;
    BITPUSH_CHECK(Snapshot(&error)) << "snapshot failed: " << error;
    snapshot_due_ = false;
  }
  // The results leave the coordinator on return.
  BITPUSH_CHECK(journal_.Commit()) << "journal commit failed";
  return results;
}

bool DurableCampaignRunner::Snapshot(std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK(open_) << "call Open() first";
  if (!durable()) return true;
  BITPUSH_CHECK(live_ && prefix_.empty())
      << "snapshots are only taken at tick boundaries";
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
  meter_.EncodeTo(&snapshot.meter_blob);
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
  if (!RewriteJournalFile({}, error)) return false;
  journal_records_ = 0;
  return journal_.Open(journal_path_, snapshot.journal_next_seq, error);
}

void DurableCampaignRunner::VerifyOrAppend(JournalRecordType type,
                                           const std::vector<uint8_t>& payload) {
  if (!live_) {
    BITPUSH_CHECK_LT(cursor_, prefix_.size());
    const JournalRecord& expected = prefix_[cursor_];
    BITPUSH_CHECK(expected.type == type && expected.payload == payload)
        << "recovery divergence: re-execution did not reproduce journal "
        << "record " << expected.seq;
    AdvanceReplay(cursor_ + 1);
    return;  // already durable — do not re-append
  }
  BITPUSH_CHECK(journal_.Append(type, payload)) << "journal append failed";
  ++journal_records_;
}

void DurableCampaignRunner::RecordMeterSample(int64_t tick) {
  const MeterTickSample sample{meter_.total_bits(), meter_.denied_charges()};
  while (static_cast<int64_t>(meter_by_tick_.size()) <= tick) {
    meter_by_tick_.push_back(sample);
  }
}

void DurableCampaignRunner::AdvanceReplay(size_t next) {
  cursor_ = next;
  if (cursor_ == prefix_.size()) {
    prefix_.clear();
    cursor_ = 0;
    live_ = true;
  }
}

bool DurableCampaignRunner::RestoreQueryResult(int64_t tick,
                                               size_t query_index,
                                               CampaignTickResult* out) {
  const auto it =
      finished_.find(std::make_pair(tick, static_cast<int64_t>(query_index)));
  if (it == finished_.end()) return false;
  *out = it->second.result;
  return true;
}

void DurableCampaignRunner::OnQueryStarted(int64_t tick, size_t query_index,
                                           int64_t value_id) {
  if (!durable()) return;
  std::vector<uint8_t> payload;
  EncodeQueryStartedRecord(
      QueryStartedRecord{tick, static_cast<int64_t>(query_index), value_id},
      &payload);
  VerifyOrAppend(JournalRecordType::kQueryStarted, payload);
}

void DurableCampaignRunner::OnQueryFinished(int64_t tick, size_t query_index,
                                            const CampaignTickResult& result,
                                            const FederatedQueryResult& outcome) {
  const auto key = std::make_pair(tick, static_cast<int64_t>(query_index));
  full_results_[key] = outcome;
  if (result.status == CampaignTickResult::Status::kRan &&
      !outcome.final_bit_means.empty()) {
    bit_means_cache_[campaign_.queries()[query_index].value_id] =
        outcome.final_bit_means;
  }
  if (!durable()) return;

  QueryFinishedRecord record;
  record.tick = tick;
  record.query_index = static_cast<int64_t>(query_index);
  record.result = result;
  record.final_bit_means = outcome.final_bit_means;
  std::vector<uint8_t> payload;
  EncodeQueryFinishedRecord(record, &payload);
  VerifyOrAppend(JournalRecordType::kQueryFinished, payload);

  FinishedQueryEntry entry;
  entry.tick = tick;
  entry.query_index = static_cast<int64_t>(query_index);
  entry.result = result;
  entry.final_bit_means = outcome.final_bit_means;
  BITPUSH_CHECK(finished_.emplace(key, entry).second)
      << "query finished twice";
}

bool DurableCampaignRunner::RestoreRound(int64_t round_id, RoundOutcome* out) {
  if (live_) return false;
  // Scan the remaining prefix for this round's close record. Finding it
  // means the round fully completed before the crash: skip the whole round
  // (its charges were already re-applied from their own records) and
  // resume after it. A completed round is never re-run — no client is
  // asked for a second bit.
  for (size_t j = cursor_; j < prefix_.size(); ++j) {
    if (prefix_[j].type != JournalRecordType::kRoundClosed) continue;
    RoundClosedRecord record;
    BITPUSH_CHECK(DecodeRoundClosedRecord(prefix_[j].payload, &record));
    if (record.round_id != round_id) continue;
    // The skipped charges were applied quietly at Open; announce them
    // here, where the live round did — ahead of the round's outcome.
    for (size_t k = cursor_; k < j; ++k) {
      if (prefix_[k].type != JournalRecordType::kMeterCharge) continue;
      MeterChargeRecord charge;
      BITPUSH_CHECK(DecodeMeterChargeRecord(prefix_[k].payload, &charge));
      meter_.AnnounceReplayedCharge(charge.value_id, charge.granted);
    }
    *out = std::move(record.outcome);
    AdvanceReplay(j + 1);
    return true;
  }
  return false;
}

void DurableCampaignRunner::OnRoundClosed(int64_t round_id,
                                          const RoundOutcome& outcome) {
  if (!durable()) return;
  RoundClosedRecord record;
  record.round_id = round_id;
  record.outcome = outcome;
  std::vector<uint8_t> payload;
  EncodeRoundClosedRecord(record, &payload);
  VerifyOrAppend(JournalRecordType::kRoundClosed, payload);
  // The next round's allocation is derived from this one and goes out to
  // clients: the round's charges and reports must be durable first.
  BITPUSH_CHECK(journal_.Commit()) << "journal commit failed";
}

void DurableCampaignRunner::OnCohortAssigned(
    int64_t round_id, const std::vector<int64_t>& client_ids) {
  if (!durable()) return;
  std::vector<uint8_t> payload;
  EncodeCohortAssignedRecord(CohortAssignedRecord{round_id, client_ids},
                             &payload);
  VerifyOrAppend(JournalRecordType::kCohortAssigned, payload);
}

void DurableCampaignRunner::OnReportAccepted(int64_t round_id,
                                             const BitReport& report) {
  if (!durable()) return;
  std::vector<uint8_t> payload;
  EncodeReportAcceptedRecord(ReportAcceptedRecord{round_id, report}, &payload);
  VerifyOrAppend(JournalRecordType::kReportAccepted, payload);
}

void DurableCampaignRunner::OnResilienceEvent(const ResilienceEvent& event) {
  if (!durable()) return;
  std::vector<uint8_t> payload;
  EncodeResilienceEventRecord(ResilienceEventRecord{event}, &payload);
  VerifyOrAppend(JournalRecordType::kResilienceEvent, payload);
}

std::optional<bool> DurableCampaignRunner::OnChargeAttempt(int64_t client_id,
                                                           int64_t value_id,
                                                           double epsilon) {
  if (live_) return std::nullopt;
  BITPUSH_CHECK_LT(cursor_, prefix_.size());
  const JournalRecord& expected = prefix_[cursor_];
  BITPUSH_CHECK(expected.type == JournalRecordType::kMeterCharge)
      << "recovery divergence: unexpected meter charge during replay";
  MeterChargeRecord record;
  BITPUSH_CHECK(DecodeMeterChargeRecord(expected.payload, &record));
  BITPUSH_CHECK(record.client_id == client_id &&
                record.value_id == value_id &&
                SameDoubleBits(record.epsilon, epsilon))
      << "recovery divergence: meter charge does not match journal record "
      << expected.seq;
  AdvanceReplay(cursor_ + 1);
  return record.granted;
}

void DurableCampaignRunner::OnCharge(int64_t client_id, int64_t value_id,
                                     double epsilon, bool granted) {
  BITPUSH_CHECK(live_)
      << "replayed charges must be served by OnChargeAttempt";
  MeterChargeRecord record;
  record.client_id = client_id;
  record.value_id = value_id;
  record.epsilon = epsilon;
  record.granted = granted;
  std::vector<uint8_t> payload;
  EncodeMeterChargeRecord(record, &payload);
  VerifyOrAppend(JournalRecordType::kMeterCharge, payload);
}

}  // namespace bitpush
