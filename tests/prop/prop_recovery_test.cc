// A kill property over two crashes in a row (tests/prop/ bitprop).
//
// The single-crash kill loops cut a journal once and recover. A second
// crash hits a run that is itself recovering: it re-runs the ticks it
// restored, runs on live, and dies again. Whatever that run wrote while
// re-running its restored prefix must leave a state directory the next
// Open accepts and finishes to the uninterrupted result.
//
// Each case crashes a durable campaign by cutting its journal to its first
// k1 records (TruncateJournalToRecords, on every shard's journal),
// reopens it and runs on, cuts it again after k2 of the records the
// recovering run appended, then reopens it and finishes. The finished
// run's history and meter ledgers and every state file must equal those
// of an uninterrupted run, byte for byte. BITPROP_SEED replays one case;
// BITPROP_ITERS raises the case count (scripts/check.sh --long).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/campaign.h"
#include "federated/client.h"
#include "federated/faults.h"
#include "federated/shard/runner.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "prop/bitprop.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

using prop::CheckOptions;
using prop::CheckProperty;
using prop::Domain;

// Campaigns run 2 to 5 ticks: with an odd length and snapshots every
// second tick, the uninterrupted run ends with a journal tail after its
// last snapshot, so a snapshot written where none was due shows in the
// state files.
constexpr int64_t kMinTicks = 2;
constexpr int64_t kMaxTicks = 5;
constexpr uint64_t kSeed = 99;
// k1 and k2 are drawn per mille of the records they may keep.
constexpr int64_t kPerMille = 1000;

struct TwoCrashCase {
  int64_t shards = 1;          // 1 or 4
  int64_t snapshot_every = 0;  // 0, 1 or 2
  int64_t ticks = kMinTicks;   // of the finished campaign
  // Ticks the first run closes before its crash, and ticks the recovering
  // run gets through, restored or live, before its own; each in
  // [1, ticks]. A recovering run that dies before it passes its restored
  // prefix is the case a re-run restored tick can break.
  int64_t first_ticks = 1;
  int64_t second_ticks = 1;
  // Per mille of the first run's journal that survives the first crash,
  // and of the recovering run's appends that survive the second. A
  // quarter of the draws keep nothing and a quarter keep everything: a
  // crash between ticks.
  int64_t k1 = 0;
  int64_t k2 = 0;
};

Domain<TwoCrashCase> TwoCrashDomain() {
  Domain<TwoCrashCase> domain;
  domain.generate = [](Rng& rng) {
    TwoCrashCase c;
    c.shards = rng.NextBelow(2) == 0 ? 1 : 4;
    c.snapshot_every = static_cast<int64_t>(rng.NextBelow(3));
    c.ticks = kMinTicks + static_cast<int64_t>(rng.NextBelow(
                              kMaxTicks - kMinTicks + 1));
    const uint64_t ticks = static_cast<uint64_t>(c.ticks);
    c.first_ticks = 1 + static_cast<int64_t>(rng.NextBelow(ticks));
    c.second_ticks = 1 + static_cast<int64_t>(rng.NextBelow(ticks));
    const auto per_mille = [&rng]() -> int64_t {
      switch (rng.NextBelow(4)) {
        case 0:
          return 0;
        case 1:
          return kPerMille;
        default:
          return static_cast<int64_t>(rng.NextBelow(kPerMille + 1));
      }
    };
    c.k1 = per_mille();
    c.k2 = per_mille();
    return c;
  };
  // Simpler means one shard, fewer snapshots, fewer ticks, and cuts that
  // keep less.
  domain.shrink = [](const TwoCrashCase& c) {
    std::vector<TwoCrashCase> out;
    const auto with = [&](int64_t TwoCrashCase::* field, int64_t value) {
      TwoCrashCase smaller = c;
      smaller.*field = value;
      out.push_back(smaller);
    };
    if (c.shards > 1) with(&TwoCrashCase::shards, 1);
    if (c.snapshot_every > 0) {
      with(&TwoCrashCase::snapshot_every, c.snapshot_every - 1);
    }
    if (c.second_ticks > 1) {
      with(&TwoCrashCase::second_ticks, c.second_ticks - 1);
    }
    if (c.first_ticks > 1) {
      with(&TwoCrashCase::first_ticks, c.first_ticks - 1);
    }
    if (c.ticks > std::max({kMinTicks, c.first_ticks, c.second_ticks})) {
      with(&TwoCrashCase::ticks, c.ticks - 1);
    }
    for (int64_t TwoCrashCase::* k : {&TwoCrashCase::k1, &TwoCrashCase::k2}) {
      if (c.*k > 0) {
        with(k, 0);
        with(k, c.*k / 2);
      }
    }
    return out;
  };
  domain.describe = [](const TwoCrashCase& c) {
    std::ostringstream out;
    out << "{shards=" << c.shards << " snapshot_every=" << c.snapshot_every
        << " ticks=" << c.ticks << " first_ticks=" << c.first_ticks
        << " second_ticks=" << c.second_ticks << " k1=" << c.k1
        << "/1000 k2=" << c.k2 << "/1000}";
    return out.str();
  };
  return domain;
}

// Two metrics under one meter, the second on every other tick at ε = 1,
// with caps tight enough that charges are denied and with injected
// dropouts and corrupt reports, so every field of a finished entry and of
// the ledger is exercised.
class Campaign {
 public:
  Campaign() : plan_(97, Rates()) {
    const FixedPointCodec codec = FixedPointCodec::Integer(7);
    Rng rng(7);
    const Dataset ages =
        CensusAges(160, rng).Clipped(codec.low(), codec.high());
    population_ = MakePopulation(ages.values(), ClientConfig{});
    populations_ = {&population_, &population_};
    codecs_ = {codec, codec};
    for (int i = 0; i < 2; ++i) {
      CampaignQuery query;
      query.name = i == 0 ? "mean_a" : "mean_b";
      query.value_id = i;
      query.cadence_ticks = i == 0 ? 1 : 2;
      query.query.adaptive.bits = codec.bits();
      query.query.adaptive.epsilon = i == 0 ? 0.0 : 1.0;
      query.query.fault_plan = &plan_;
      query.query.fault_policy.report_deadline_minutes = 30.0;
      queries_.push_back(query);
    }
    policy_.max_bits_per_value = 2;
    policy_.max_bits_per_client = 3;
    policy_.max_epsilon_per_client = 100.0;
  }
  // The queries point at plan_.
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  // What a run leaves: the results it returned for every tick, its meter
  // ledgers, and any error that stopped it.
  struct Outcome {
    std::string history;
    std::vector<std::vector<uint8_t>> meters;
    std::string error;
  };

  // Opens the state under `dir` (fresh or recovering) and runs ticks
  // [0, ticks), in one process.
  Outcome Run(const TwoCrashCase& c, const std::string& dir,
              int64_t ticks) const {
    Outcome out;
    std::ostringstream history;
    history.precision(17);
    if (c.shards == 1) {
      DurableCampaignOptions options;
      options.state_dir = dir;
      options.seed = kSeed;
      options.snapshot_every_ticks = c.snapshot_every;
      options.fsync = false;
      DurableCampaignRunner runner(queries_, policy_, options);
      if (!runner.Open(&out.error)) return out;
      for (int64_t tick = 0; tick < ticks; ++tick) {
        for (const CampaignTickResult& r :
             runner.RunTick(tick, populations_, codecs_)) {
          history << r.tick << ' ' << r.query_name << ' '
                  << static_cast<int>(r.status) << ' ' << r.estimate << ' '
                  << r.reports << '\n';
        }
      }
      out.meters.emplace_back();
      runner.meter().EncodeTo(&out.meters.back());
    } else {
      ShardedCampaignOptions options;
      options.shards = c.shards;
      options.seed = kSeed;
      options.state_root = dir;
      options.snapshot_every_ticks = c.snapshot_every;
      options.fsync = false;
      ShardedCampaignRunner runner(queries_, policy_, options);
      runner.Open(populations_, codecs_);
      for (int64_t tick = 0; tick < ticks; ++tick) {
        MergedTickResult merged;
        if (!runner.RunTick(tick, &merged, &out.error)) return out;
        for (const MergedQueryResult& r : merged.queries) {
          history << r.tick << ' ' << r.query_name << ' '
                  << static_cast<int>(r.status) << ' ' << r.estimate << ' '
                  << r.reports << ' ' << r.shards_merged << ' '
                  << r.variance_bound << '\n';
        }
      }
      for (int64_t s = 0; s < c.shards; ++s) {
        out.meters.push_back(runner.shard_meter_bytes(s));
      }
    }
    out.history = history.str();
    return out;
  }

 private:
  static FaultRates Rates() {
    FaultRates rates;
    rates.mid_round_dropout = 0.1;
    rates.corrupt_message = 0.05;
    return rates;
  }

  FaultPlan plan_;
  std::vector<Client> population_;
  std::vector<const std::vector<Client>*> populations_;
  std::vector<FixedPointCodec> codecs_;
  std::vector<CampaignQuery> queries_;
  MeterPolicy policy_;
};

// The state directories of a run: the runner's own, or one per shard.
std::vector<std::string> StateDirs(const TwoCrashCase& c,
                                   const std::string& root) {
  if (c.shards == 1) return {root};
  std::vector<std::string> dirs;
  for (int64_t s = 0; s < c.shards; ++s) {
    dirs.push_back(root + "/shard" + std::to_string(s));
  }
  return dirs;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Every state file's name and bytes, in order; an absent file is named
// with no bytes.
std::string StateFiles(const TwoCrashCase& c, const std::string& root) {
  std::string files;
  for (const std::string& dir : StateDirs(c, root)) {
    for (const std::string& path : {JournalPath(dir), SnapshotPath(dir)}) {
      files += path.substr(root.size()) + '\n';
      if (!std::filesystem::exists(path)) continue;
      const std::vector<uint8_t> bytes = FileBytes(path);
      files += std::to_string(bytes.size()) + '\n';
      files.append(bytes.begin(), bytes.end());
    }
  }
  return files;
}

// Records a journal holds: its whole clean parse, as the cut tools read
// it.
bool ReadRecords(const std::string& dir, std::vector<JournalRecord>* out,
                 std::string* error) {
  JournalReadResult contents;
  if (!ReadJournalFromFirstFrame(JournalPath(dir), &contents, error)) {
    return false;
  }
  *out = std::move(contents.records);
  return true;
}

std::optional<std::string> TwoCrashesRecover(const Campaign& campaign,
                                             const TwoCrashCase& c) {
  const std::string base = ::testing::TempDir() + "/bitprop_two_crash";
  std::filesystem::remove_all(base);
  const std::string clean_dir = base + "/clean";
  const std::string dir = base + "/crashed";
  const auto fail = [&](const std::string& what) {
    std::filesystem::remove_all(base);
    return std::optional<std::string>(what);
  };

  const Campaign::Outcome clean = campaign.Run(c, clean_dir, c.ticks);
  if (!clean.error.empty()) return fail("clean run failed: " + clean.error);

  // First crash: the first run loses all but k1 per mille of its journal.
  const Campaign::Outcome first = campaign.Run(c, dir, c.first_ticks);
  if (!first.error.empty()) return fail("first run failed: " + first.error);
  std::string error;
  // Per state directory, the last record the recovering run found there:
  // Open keeps the cut journal up to its last round, query or tick record,
  // and the recovering run appends after it.
  std::vector<std::optional<uint64_t>> last_kept;
  for (const std::string& state : StateDirs(c, dir)) {
    std::vector<JournalRecord> records;
    if (!ReadRecords(state, &records, &error)) return fail(error);
    const size_t keep = records.size() * static_cast<size_t>(c.k1) /
                        static_cast<size_t>(kPerMille);
    if (!TruncateJournalToRecords(JournalPath(state), keep, &error)) {
      return fail(error);
    }
    records.resize(keep);
    while (!records.empty() &&
           records.back().type == JournalRecordType::kMeterCharge) {
      records.pop_back();
    }
    last_kept.push_back(records.empty()
                            ? std::nullopt
                            : std::optional<uint64_t>(records.back().seq));
  }

  // Second crash: the recovering run re-runs its restored ticks, runs on,
  // and loses all but k2 per mille of what it appended since it opened or
  // since its last snapshot.
  const Campaign::Outcome second = campaign.Run(c, dir, c.second_ticks);
  if (!second.error.empty()) {
    return fail("recovering run failed: " + second.error);
  }
  const std::vector<std::string> dirs = StateDirs(c, dir);
  for (size_t i = 0; i < dirs.size(); ++i) {
    std::vector<JournalRecord> records;
    if (!ReadRecords(dirs[i], &records, &error)) return fail(error);
    size_t found = 0;  // records the recovering run found, still there
    while (found < records.size() && last_kept[i].has_value() &&
           records[found].seq <= *last_kept[i]) {
      ++found;
    }
    const size_t keep = found + (records.size() - found) *
                                    static_cast<size_t>(c.k2) /
                                    static_cast<size_t>(kPerMille);
    if (!TruncateJournalToRecords(JournalPath(dirs[i]), keep, &error)) {
      return fail(error);
    }
  }

  const Campaign::Outcome finished = campaign.Run(c, dir, c.ticks);
  if (!finished.error.empty()) {
    return fail("final run failed: " + finished.error);
  }
  if (finished.history != clean.history) {
    return fail("history differs from the uninterrupted run:\n" +
                finished.history + "expected:\n" + clean.history);
  }
  if (finished.meters != clean.meters) {
    return fail("meter ledger differs from the uninterrupted run");
  }
  if (StateFiles(c, dir) != StateFiles(c, clean_dir)) {
    return fail("state files differ from the uninterrupted run's");
  }
  std::filesystem::remove_all(base);
  return std::nullopt;
}

TEST(PropRecoveryTest, TwoCrashesRecoverToTheUninterruptedState) {
  const Campaign campaign;
  CheckOptions options;
  options.iterations = 100;
  options.max_iterations = 1000;  // four campaign runs per case
  CheckProperty<TwoCrashCase>(
      "a campaign crashed, recovered, crashed again while recovering and "
      "recovered once more ends with the uninterrupted run's results, "
      "ledgers and state files",
      TwoCrashDomain(),
      [&campaign](const TwoCrashCase& c) {
        return TwoCrashesRecover(campaign, c);
      },
      options);
}

}  // namespace
}  // namespace bitpush
