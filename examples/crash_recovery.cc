// Crash-consistent coordination (src/persist/): a measurement campaign is
// journaled to a state directory, killed mid-campaign at a journal-record
// boundary, and recovered in a fresh process. The recovered run finishes
// the campaign and lands on exactly the results — and exactly the
// privacy-meter ledger — of a run that was never interrupted. No client is
// re-contacted for a completed round, and no meter charge is applied twice.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/privacy_meter.h"
#include "data/census.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "rng/rng.h"

namespace {

constexpr uint64_t kSeed = 7;
constexpr int64_t kTicks = 3;

std::vector<bitpush::CampaignQuery> MakeQueries() {
  std::vector<bitpush::CampaignQuery> queries;
  for (int i = 0; i < 2; ++i) {
    bitpush::CampaignQuery query;
    query.name = i == 0 ? "latency" : "battery";
    query.value_id = i;
    query.cadence_ticks = 1;
    query.query.adaptive.bits = 7;
    queries.push_back(query);
  }
  return queries;
}

struct Outcome {
  std::vector<bitpush::CampaignTickResult> history;
  std::vector<uint8_t> meter;
};

Outcome RunCampaign(bitpush::DurableCampaignRunner* runner) {
  const std::vector<bitpush::FixedPointCodec> codecs = {
      bitpush::FixedPointCodec::Integer(7),
      bitpush::FixedPointCodec::Integer(7)};
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    runner->RunTick(tick, codecs);
  }
  Outcome outcome;
  outcome.history = runner->campaign().history();
  runner->meter().EncodeTo(&outcome.meter);
  return outcome;
}

}  // namespace

int main() {
  bitpush::Rng data_rng(1);
  const bitpush::Dataset ages = bitpush::CensusAges(500, data_rng);
  const std::vector<bitpush::Client> population =
      bitpush::MakePopulation(ages.values(), bitpush::ClientConfig{});
  bitpush::MeterPolicy policy;
  policy.max_bits_per_value = 2;
  policy.max_bits_per_client = 3;

  const std::string base = std::filesystem::temp_directory_path() /
                           "bitpush_crash_recovery_example";
  std::filesystem::remove_all(base);
  auto options = [&](const std::string& leaf) {
    bitpush::DurableCampaignOptions result;
    result.state_dir = base + "/" + leaf;
    result.seed = kSeed;
    result.fsync = false;  // demo speed; production keeps the default
    return result;
  };

  // Ground truth: a run nothing interrupts.
  bitpush::DurableCampaignRunner uninterrupted(MakeQueries(), policy,
                                               options("uninterrupted"));
  std::string error;
  if (!uninterrupted.Open({&population, &population}, &error)) {
    std::fprintf(stderr, "open: %s\n", error.c_str());
    return 1;
  }
  const Outcome expected = RunCampaign(&uninterrupted);
  std::printf("uninterrupted run: %zu tick results, meter ledger %zu bytes\n",
              expected.history.size(), expected.meter.size());

  // "Crash" a second coordinator partway through: run it fully, then cut
  // its journal back to the first 150 records — the kind of record prefix
  // a SIGKILL leaves on disk (everything up to the last group commit).
  // (bitpush_sim --task=campaign --crash_after_records does this with a
  // real exit(137); here the truncation keeps the demo in one process.)
  {
    bitpush::DurableCampaignRunner doomed(MakeQueries(), policy,
                                          options("crashed"));
    if (!doomed.Open({&population, &population}, &error)) {
      std::fprintf(stderr, "open: %s\n", error.c_str());
      return 1;
    }
    RunCampaign(&doomed);
  }
  const std::string journal_path = bitpush::JournalPath(base + "/crashed");
  bitpush::JournalReadResult journal;
  if (!bitpush::ReadJournal(journal_path, 0, &journal, &error)) {
    std::fprintf(stderr, "read journal: %s\n", error.c_str());
    return 1;
  }
  const size_t keep = 150;
  if (!bitpush::TruncateJournalToRecords(journal_path, keep, &error)) {
    std::fprintf(stderr, "truncate journal: %s\n", error.c_str());
    return 1;
  }
  std::printf("crashed run: journal cut to %zu of %zu records\n", keep,
              journal.records.size());

  // A fresh process points at the state directory and resumes.
  bitpush::DurableCampaignRunner recovered(MakeQueries(), policy,
                                           options("crashed"));
  if (!recovered.Open({&population, &population}, &error)) {
    std::fprintf(stderr, "recovery: %s\n", error.c_str());
    return 1;
  }
  const bitpush::RecoveryInfo& info = recovered.recovery_info();
  std::printf("recovery: replayed %lld journal records "
              "(%lld ticks already complete)\n",
              static_cast<long long>(info.replayed_records),
              static_cast<long long>(info.completed_ticks));
  const Outcome actual = RunCampaign(&recovered);

  const bool results_match = actual.history == expected.history;
  const bool meters_match = actual.meter == expected.meter;
  std::printf("results identical: %s\n", results_match ? "yes" : "NO");
  std::printf("meter ledgers identical (every charge exactly once): %s\n",
              meters_match ? "yes" : "NO");
  for (const bitpush::CampaignTickResult& result : actual.history) {
    std::printf("  tick %lld %-8s %-14s estimate %8.3f reports %lld\n",
                static_cast<long long>(result.tick),
                result.query_name.c_str(),
                result.status == bitpush::CampaignTickResult::Status::kRan
                    ? "ran"
                    : "skipped",
                result.estimate, static_cast<long long>(result.reports));
  }
  std::filesystem::remove_all(base);
  return results_match && meters_match ? 0 : 1;
}
