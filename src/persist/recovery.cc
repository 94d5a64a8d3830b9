#include "persist/recovery.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <set>
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

}  // namespace

DurableCampaignRunner::DurableCampaignRunner(
    std::vector<CampaignQuery> queries, const MeterPolicy& policy,
    DurableCampaignOptions options, ResilienceConfig resilience)
    : policy_(policy),
      options_(std::move(options)),
      meter_(policy),
      campaign_(std::move(queries), &meter_, resilience),
      rng_(options_.seed) {}

bool DurableCampaignRunner::Open(
    const std::vector<const std::vector<Client>*>& populations,
    std::string* error, const obs::TraceContext& parent) {
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK(!open_) << "runner already open";
  populations_ = populations;
  campaign_.BindPopulations(populations_);
  if (!durable()) {
    // In memory there is no state to load and no journal to feed: the
    // recorder hooks only keep the finished entries, and the meter runs
    // without a journal.
    campaign_.set_recorder(this);
    open_ = true;
    return true;
  }
  obs::Span span("recovery.open", "persist");
  span.set_parent(parent);
  // Each stage below has a span under this one: their self times and the
  // directory set-up left unattributed add up to this span.
  const obs::TraceContext open = span.context();

  std::error_code ec;
  std::filesystem::create_directories(options_.state_dir, ec);
  if (ec) {
    *error = "create state dir " + options_.state_dir + ": " + ec.message();
    return false;
  }
  journal_path_ = JournalPath(options_.state_dir);
  snapshot_path_ = SnapshotPath(options_.state_dir);

  bool found = false;
  uint64_t expected_seq = 0;
  {
    // The snapshot image lives only through the ledger decode.
    std::vector<uint8_t> image;
    CoordinatorSnapshotView snapshot;
    {
      obs::Span stage("snapshot.load", "persist");
      stage.set_parent(open);
      if (!LoadSnapshot(&image, &snapshot, &found, error)) return false;
      stage.AddNumeric("bytes", static_cast<double>(image.size()));
    }
    if (found) {
      obs::Span stage("ledger.decode", "persist");
      stage.set_parent(open);
      if (!DecodeLedger(snapshot.meter_blob, error)) return false;
      expected_seq = snapshot.journal_next_seq;
    }
  }

  JournalReplay replay;
  {
    obs::Span stage("journal.parse", "persist");
    stage.set_parent(open);
    if (!ParseJournal(expected_seq, &replay, error)) return false;
    stage.AddNumeric("bytes", static_cast<double>(journal_image_.size()));
  }
  info_.torn_tail = replay.torn_tail;
  info_.replayed_records = static_cast<int64_t>(replay.frames);
  info_.recovered = found || replay.frames > 0 || replay.torn_tail;
  {
    obs::Span stage("journal.apply", "persist");
    stage.set_parent(open);
    if (!ApplyJournal(&replay, error)) return false;
  }
  const size_t discarded = replay.frames - replay.kept;
  journal_records_ = static_cast<int64_t>(replay.kept);

  {
    obs::Span stage("journal.reopen", "persist");
    stage.set_parent(open);
    // Appends resume after the last kept record, so the file must hold
    // exactly the kept records. Most often it already does, and it is
    // kept as it is. Otherwise it is rewritten to the kept frames' bytes,
    // copied as they lie in the image: that drops the torn tail, any
    // stale pre-snapshot prefix and the charges of a round that never
    // closed, so a later recovery never re-parses them, and it creates a
    // missing file. The rewrite is atomic: the old journal stays durable
    // and intact until the rewritten bytes are, so a crash inside it
    // cannot lose journaled meter charges.
    const bool exact = replay.found && !replay.torn_tail &&
                       replay.stale_frames == 0 && discarded == 0;
    if (!exact && !ReplaceFile(journal_path_, replay.kept_bytes,
                               options_.fsync, error)) {
      return false;
    }
    if (!journal_.Open(journal_path_, replay.next_seq, error)) return false;
    journal_.set_fsync(options_.fsync);
    journal_.set_crash_after_records(options_.crash_after_records);
    // A kept file is made as durable as a rewrite would have made it.
    if (exact && options_.fsync) {
      if (!journal_.Sync()) {
        *error =
            "fsync journal " + journal_path_ + ": " + std::strerror(errno);
        return false;
      }
      if (!SyncParentDir(journal_path_, error)) return false;
    }
  }
  // Held rounds' charges point into the image; with none, it goes now.
  if (held_rounds_.empty()) std::vector<uint8_t>().swap(journal_image_);

  meter_.set_journal(this);
  campaign_.set_recorder(this);
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

bool DurableCampaignRunner::LoadSnapshot(std::vector<uint8_t>* image,
                                         CoordinatorSnapshotView* snapshot,
                                         bool* found, std::string* error) {
  if (!LoadSnapshotFile(snapshot_path_, image, snapshot, found, error)) {
    return false;
  }
  if (!*found) return true;
  info_.had_snapshot = true;
  if (snapshot->base_seed != options_.seed) {
    *error = "state directory was recorded under a different seed";
    return false;
  }
  const auto& queries = campaign_.queries();
  for (FinishedQueryEntry& entry : snapshot->finished) {
    // Tallies are as wide as the query's codec, or empty (no round ran).
    if (entry.query_index >= static_cast<int64_t>(queries.size()) ||
        (entry.tallies.bits() != 0 &&
         entry.tallies.bits() !=
             queries[static_cast<size_t>(entry.query_index)]
                 .query.adaptive.bits)) {
      *error = "snapshot finished query does not match this campaign";
      return false;
    }
    const auto key = std::make_pair(entry.result.tick, entry.query_index);
    finished_.emplace(key, std::move(entry));
  }
  if (!snapshot->health_blob.empty()) {
    HealthTracker* health = campaign_.mutable_health();
    if (health == nullptr) {
      *error = "snapshot has breaker state but the campaign has no breaker";
      return false;
    }
    size_t health_offset = 0;
    if (!HealthTracker::DecodeFrom(snapshot->health_blob, &health_offset,
                                   health) ||
        health_offset != snapshot->health_blob.size()) {
      *error = "snapshot breaker state failed validation";
      return false;
    }
  }
  completed_ticks_ = snapshot->completed_ticks;
  return true;
}

bool DurableCampaignRunner::DecodeLedger(std::span<const uint8_t> blob,
                                         std::string* error) {
  // A failed Open leaves the runner unusable, so the ledger fills the
  // bound meter in place. Its registration is closed, so a ledger listing
  // a client outside the populations or a value no query measures fails.
  size_t offset = 0;
  if (!PrivacyMeter::DecodeFrom(blob, &offset, &meter_) ||
      offset != blob.size()) {
    *error = "snapshot meter ledger failed validation";
    return false;
  }
  if (!(meter_.policy() == policy_)) {
    *error = "snapshot meter policy does not match this campaign";
    return false;
  }
  return true;
}

bool DurableCampaignRunner::ParseJournal(uint64_t expected_seq,
                                         JournalReplay* replay,
                                         std::string* error) {
  // A missing journal parses as an empty one.
  if (!ReadWholeFile(journal_path_, &journal_image_, &replay->found,
                     error)) {
    return false;
  }
  // Every frame and record is validated here, before anything is applied.
  // Charges belong to the round whose close follows them; a finished
  // query's rounds go to the apply pass with it. The closed rounds of the
  // query being read, and the charges since the last round, query or tick
  // record:
  std::vector<HeldRound> rounds;
  MeterChargeRun charges;
  // The queries this journal finishes, on top of the snapshot's.
  std::set<std::pair<int64_t, int64_t>> journaled;
  const auto& queries = campaign_.queries();
  const auto known_query = [&queries](const RoundClosedRecord& closed) {
    if (closed.query_index >= static_cast<int64_t>(queries.size())) {
      return false;
    }
    const CampaignQuery& query =
        queries[static_cast<size_t>(closed.query_index)];
    return query.value_id == closed.value_id &&
           closed.outcome.histogram.bits() == query.query.adaptive.bits;
  };
  const auto finished_before = [&](const std::pair<int64_t, int64_t>& key) {
    return finished_.contains(key) || journaled.contains(key);
  };
  JournalFrameWalker walker(journal_image_, expected_seq);
  JournalFrame frame;
  // The byte range of the frames kept so far: from the first frame the
  // walk yields to the last round, query or tick record.
  size_t kept_begin = 0;
  size_t kept_end = 0;
  replay->next_seq = expected_seq;
  while (walker.Next(&frame)) {
    if (replay->frames++ == 0) kept_begin = kept_end = frame.begin;
    switch (frame.type) {
      case JournalRecordType::kMeterCharge: {
        MeterChargeRecord charge;
        if (!DecodeMeterChargeRecord(frame.payload, &charge)) {
          *error = "journal: malformed meter-charge record";
          return false;
        }
        charges.Append(frame);
        // Kept only once a round, query or tick record follows it.
        continue;
      }
      case JournalRecordType::kRoundClosed: {
        HeldRound round;
        if (!DecodeRoundClosedRecord(frame.payload, &round.closed)) {
          *error = "journal: malformed round-closed record";
          return false;
        }
        const RoundClosedRecord& closed = round.closed;
        if (closed.tick != completed_ticks_ || !known_query(closed) ||
            finished_before({closed.tick, closed.query_index})) {
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
        round.charges = std::exchange(charges, MeterChargeRun());
        rounds.push_back(std::move(round));
        break;
      }
      case JournalRecordType::kQueryFinished: {
        JournalReplay::Query query;
        QueryFinishedRecord& finished = query.finished;
        if (!DecodeQueryFinishedRecord(frame.payload, &finished) ||
            !charges.empty() || finished.tick != completed_ticks_ ||
            finished.result.tick != finished.tick ||
            finished.query_index >= static_cast<int64_t>(queries.size()) ||
            (!rounds.empty() &&
             rounds.front().closed.query_index != finished.query_index)) {
          *error = "journal: malformed or misplaced query-finished record";
          return false;
        }
        const auto key = std::make_pair(finished.tick, finished.query_index);
        if (finished_before(key)) {
          *error = "journal: duplicate query-finished record";
          return false;
        }
        journaled.insert(key);
        query.rounds = std::move(rounds);
        rounds.clear();
        replay->queries.push_back(std::move(query));
        break;
      }
      case JournalRecordType::kCampaignTick: {
        CampaignTickRecord tick;
        if (!DecodeCampaignTickRecord(frame.payload, &tick) ||
            !rounds.empty() || !charges.empty()) {
          *error = "journal: malformed or misplaced campaign-tick record";
          return false;
        }
        if (tick.tick != completed_ticks_) {
          *error = "journal: campaign ticks closed out of order";
          return false;
        }
        completed_ticks_ = tick.tick + 1;
        replay->tick_closes.emplace_back(tick.tick, replay->queries.size());
        break;
      }
    }
    replay->kept = replay->frames;
    replay->next_seq = frame.seq + 1;
    kept_end = frame.end;
  }
  if (!walker.error().empty()) {
    *error = walker.error();
    return false;
  }
  replay->torn_tail = walker.torn_tail();
  replay->stale_frames = walker.stale_frames();
  replay->kept_bytes = std::span<const uint8_t>(journal_image_)
                           .subspan(kept_begin, kept_end - kept_begin);
  // The query in flight at the crash: RestoreRound applies its closed
  // rounds when the re-execution reaches them. The charges after its last
  // closed round are dropped with the frames the journal does not keep;
  // that round re-executes from its RNG fork.
  held_rounds_.assign(std::make_move_iterator(rounds.begin()),
                      std::make_move_iterator(rounds.end()));
  return true;
}

bool DurableCampaignRunner::ApplyJournal(JournalReplay* replay,
                                         std::string* error) {
  // A finished query's rounds are applied at its kQueryFinished record, in
  // journal order — which is execution order — so the ledger absorbs every
  // charge exactly once, the breaker rebuilds transition by transition,
  // and the flight recorder's stable events (meter announcements, round
  // outcomes, breaker transitions) land in the same relative order a live
  // run produced them. Pre-snapshot history came in with the snapshot's
  // health blob (round metrics truncated with the journal are gone — the
  // deterministic-metrics contract is scoped to journal-only recovery;
  // see docs/OBSERVABILITY.md).
  HealthTracker* health = campaign_.mutable_health();
  auto tick_close = replay->tick_closes.begin();
  // Samples the meter at each tick close that came before query `q`,
  // before any later record mutates it — the recovery-stable trajectory
  // meter_by_tick().
  const auto close_ticks_before = [&](size_t q) {
    for (; tick_close != replay->tick_closes.end() &&
           tick_close->second == q;
         ++tick_close) {
      RecordMeterSample(tick_close->first);
    }
  };
  for (size_t q = 0; q < replay->queries.size(); ++q) {
    close_ticks_before(q);
    JournalReplay::Query& query = replay->queries[q];
    FederatedQueryResult restored;
    for (HeldRound& round : query.rounds) {
      // The recomputed decisions must match what was journaled — anything
      // else means the ledger and journal disagree, and a coordinator that
      // cannot trust its ledger must stop.
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
      (round.closed.round_id == 1 ? restored.round1 : restored.round2) =
          std::move(outcome);
    }
    // The record's final bit means go unread: the entry keeps the tallies
    // they were computed from.
    const QueryFinishedRecord& finished = query.finished;
    finished_.emplace(std::make_pair(finished.tick, finished.query_index),
                      MakeFinishedQueryEntry(finished.query_index,
                                             finished.result, restored));
  }
  close_ticks_before(replay->queries.size());
  if (health != nullptr) ObserveBreakerState(*health);
  return true;
}

bool DurableCampaignRunner::ApplyCharges(const MeterChargeRun& charges) {
  return meter_.ReplayCharges(charges.size(), [&charges](size_t i) {
    return charges[i];
  }) == charges.size();
}

std::vector<CampaignTickResult> DurableCampaignRunner::RunTick(
    int64_t tick, const std::vector<FixedPointCodec>& codecs) {
  BITPUSH_CHECK(open_) << "call Open() first";
  BITPUSH_CHECK_EQ(tick, next_tick_)
      << "RunTick must be called for every tick from 0 in order";

  std::vector<CampaignTickResult> results =
      campaign_.RunTick(tick, populations_, codecs, rng_);
  ++next_tick_;
  // No-op for ticks already sampled at Open; the tick that was in flight
  // at a crash gets its sample here, after its re-execution completed —
  // the same totals the uninterrupted run closed it with.
  RecordMeterSample(tick);
  // A restored tick is read-only: its records, and any snapshot that
  // covers them, are on disk already.
  if (tick < info_.completed_ticks) return results;

  // The in-flight query (if any) lived at tick info_.completed_ticks, so by
  // the end of that tick the re-execution must have restored every held
  // round.
  BITPUSH_CHECK(held_rounds_.empty())
      << "recovery divergence: a journaled round was not re-executed";
  completed_ticks_ = tick + 1;
  if (!durable()) return results;

  std::vector<uint8_t> payload;
  EncodeCampaignTickRecord(CampaignTickRecord{tick}, &payload);
  Append(JournalRecordType::kCampaignTick, payload);
  if (options_.snapshot_every_ticks > 0 &&
      completed_ticks_ % options_.snapshot_every_ticks == 0) {
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
  // Journaled rounds are held only inside the restored prefix, so this
  // also keeps a snapshot from persisting a ledger without their charges.
  if (!durable() || next_tick_ <= info_.completed_ticks) return true;
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
  const FinishedQueryEntry* entry = finished_query(tick, query_index);
  if (entry == nullptr) return false;
  *out = entry->result;
  return true;
}

const FinishedQueryEntry* DurableCampaignRunner::finished_query(
    int64_t tick, size_t query_index) const {
  const auto it =
      finished_.find(std::make_pair(tick, static_cast<int64_t>(query_index)));
  return it != finished_.end() ? &it->second : nullptr;
}

void DurableCampaignRunner::OnQueryStarted(int64_t tick, size_t query_index,
                                           int64_t /*value_id*/) {
  query_tick_ = tick;
  query_index_ = static_cast<int64_t>(query_index);
}

void DurableCampaignRunner::OnQueryFinished(int64_t tick, size_t query_index,
                                            const CampaignTickResult& result,
                                            FederatedQueryResult outcome) {
  const int64_t index = static_cast<int64_t>(query_index);
  BITPUSH_CHECK(finished_
                    .emplace(std::make_pair(tick, index),
                             MakeFinishedQueryEntry(index, result, outcome))
                    .second)
      << "query finished twice";
  if (!durable()) return;

  QueryFinishedRecord record;
  record.tick = tick;
  record.query_index = index;
  record.result = result;
  record.final_bit_means = std::move(outcome.final_bit_means);
  std::vector<uint8_t> payload;
  EncodeQueryFinishedRecord(record, &payload);
  Append(JournalRecordType::kQueryFinished, payload);
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
  // Its charges are journaled already: the replay journals nothing. The
  // meter's events land where the live round emitted them, ahead of the
  // round's outcome.
  BITPUSH_CHECK(ApplyCharges(held.charges))
      << "recovery divergence: a meter charge of round " << round_id
      << " of tick " << query_tick_ << " query " << query_index_
      << " does not reproduce its journaled decision";
  *out = std::move(held.closed.outcome);
  held_rounds_.pop_front();
  // The last held round's charges were the last pointers into the image.
  if (held_rounds_.empty()) std::vector<uint8_t>().swap(journal_image_);
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
