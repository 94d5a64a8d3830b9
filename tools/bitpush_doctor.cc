// Post-mortem doctor: replays a campaign's durable state directory and its
// observability dumps (events JSONL, metrics text) into one human-readable
// report — the artifact an operator reads after a crash instead of
// spelunking raw journals.
//
//   bitpush_doctor --state_dir=/tmp/campaign.state
//                  --events=events.jsonl --metrics=metrics.prom
//   bitpush_doctor --validate_events=events.jsonl
//
// Report sections (each emitted only when its input is present):
//   journal   — record count, type histogram, torn-tail verdict, and each
//               closed round's contacts, meter charges, accepted reports
//               and crashes
//   events    — flight-recorder timeline (stable stream first)
//   alerts    — fired/resolved alert transitions from the event stream
//   shards    — per-shard loss/recovery attribution, slowest shard named
//   metrics   — the bitpush_alert_state gauge family from the metrics dump
//
// --validate_events is the CI mode: every line of the events JSONL must
// parse as a standalone JSON object (obs::JsonIsWellFormed); exit status 1
// on the first malformed line.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "util/flags.h"

namespace bitpush {
namespace {

bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Minimal field extraction from one line of our own EventsJsonl output.
// This is not a general JSON parser — it relies on the exporter's flat,
// one-object-per-line shape (validated separately by JsonIsWellFormed).
std::string JsonStringField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return "";
  const size_t begin = start + needle.size();
  std::string out;
  for (size_t i = begin; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[++i];
      continue;
    }
    if (line[i] == '"') return out;
    out += line[i];
  }
  return out;
}

int64_t JsonIntField(const std::string& line, const std::string& key,
                     int64_t fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return fallback;
  return std::strtoll(line.c_str() + start + needle.size(), nullptr, 10);
}

const char* JournalRecordTypeName(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kMeterCharge:
      return "meter_charge (retired)";
    case JournalRecordType::kRoundClosed:
      return "round_closed";
    case JournalRecordType::kQueryFinished:
      return "query_finished";
    case JournalRecordType::kCampaignTick:
      return "campaign_tick";
  }
  return "unknown";
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

// CI mode: every non-empty line must be a standalone well-formed JSON
// value. Returns the process exit status.
int ValidateEvents(const std::string& path) {
  std::string text;
  std::string error;
  if (!ReadFileToString(path, &text, &error)) {
    std::fprintf(stderr, "bitpush_doctor: %s\n", error.c_str());
    return EXIT_FAILURE;
  }
  int64_t validated = 0;
  const std::vector<std::string> lines = SplitLines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    if (!obs::JsonIsWellFormed(lines[i], &error)) {
      std::fprintf(stderr, "bitpush_doctor: %s line %zu: %s\n", path.c_str(),
                   i + 1, error.c_str());
      return EXIT_FAILURE;
    }
    ++validated;
  }
  std::printf("events ok: %lld well-formed JSONL line(s) in %s\n",
              static_cast<long long>(validated), path.c_str());
  return EXIT_SUCCESS;
}

void AppendJournalSection(const std::string& state_dir, std::string* report) {
  const std::string journal_path = JournalPath(state_dir);
  *report += "== journal (" + journal_path + ") ==\n";
  JournalReadResult result;
  std::string error;
  // Read from the first frame: a journal a snapshot truncated starts past
  // sequence number 0.
  if (!ReadJournalFromFirstFrame(journal_path, &result, &error)) {
    *report += "UNREADABLE: " + error + "\n";
    *report += "(hard corruption — recovery would fail closed here)\n\n";
    return;
  }
  *report += "records: " + std::to_string(result.records.size()) + "\n";
  *report += "next_seq: " + std::to_string(result.next_seq) + "\n";
  *report += std::string("snapshot.bin: ") +
             (FileExists(SnapshotPath(state_dir)) ? "present" : "absent") +
             "\n";
  if (result.torn_tail) {
    *report += "torn tail: YES — file ends mid-frame after byte " +
               std::to_string(result.clean_length) +
               " (the expected crash artifact; recovery truncates it and "
               "restores the clean prefix)\n";
  } else {
    *report += "torn tail: no\n";
  }
  std::map<std::string, int64_t> histogram;
  std::string rounds;
  int64_t last_tick = -1;
  for (const JournalRecord& record : result.records) {
    ++histogram[JournalRecordTypeName(record.type)];
    if (record.type == JournalRecordType::kCampaignTick) {
      CampaignTickRecord tick;
      if (DecodeCampaignTickRecord(record.payload, &tick)) {
        last_tick = tick.tick;
      }
    }
    if (record.type == JournalRecordType::kRoundClosed) {
      // A round's record holds its contact list with a bitmap over it per
      // fact: a charge attempted, a charge granted, a report accepted, a
      // crash.
      RoundClosedRecord closed;
      if (!DecodeRoundClosedRecord(record.payload, &closed)) {
        rounds += "  seq " + std::to_string(record.seq) + ": MALFORMED\n";
        continue;
      }
      const RoundOutcome& outcome = closed.outcome;
      rounds +=
          "  tick " + std::to_string(closed.tick) + " query " +
          std::to_string(closed.query_index) + " round " +
          std::to_string(closed.round_id) +
          ": contacts=" + std::to_string(outcome.assigned_clients.size()) +
          " charges attempted=" +
          std::to_string(CountContacts(outcome.charge_attempted)) +
          " granted=" + std::to_string(CountContacts(outcome.charge_granted)) +
          " accepted=" + std::to_string(CountContacts(outcome.accepted)) +
          " crashed=" + std::to_string(CountContacts(outcome.crashed)) + "\n";
    }
  }
  for (const auto& [name, count] : histogram) {
    *report += "  " + name + ": " + std::to_string(count) + "\n";
  }
  if (!rounds.empty()) *report += "closed rounds:\n" + rounds;
  if (last_tick >= 0) {
    *report += "last completed tick: " + std::to_string(last_tick) + "\n";
  }
  *report += "\n";
}

void AppendEventsSections(const std::string& events_path,
                          std::string* report) {
  std::string text;
  std::string error;
  if (!ReadFileToString(events_path, &text, &error)) {
    *report += "== events ==\nUNREADABLE: " + error + "\n\n";
    return;
  }
  const std::vector<std::string> lines = SplitLines(text);

  *report += "== events (" + events_path + ") ==\n";
  std::map<std::string, int64_t> by_type;
  std::vector<std::string> alert_lines;
  // shard -> {lost, recovered, quorum degradations}
  std::map<int64_t, std::vector<int64_t>> shard_stats;
  int64_t timeline_count = 0;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    const std::string type = JsonStringField(line, "type");
    if (type.empty()) continue;
    ++by_type[type];
    ++timeline_count;
    const int64_t tick = JsonIntField(line, "tick", -1);
    const int64_t shard = JsonIntField(line, "shard", -1);
    const std::string detail = JsonStringField(line, "detail");
    if (type == "alert_fired" || type == "alert_resolved") {
      std::string entry = (type == "alert_fired" ? "FIRED   " : "RESOLVED");
      if (tick >= 0) entry += " tick=" + std::to_string(tick);
      if (!detail.empty()) entry += " " + detail;
      alert_lines.push_back(entry);
    }
    if (shard >= 0) {
      std::vector<int64_t>& stats = shard_stats[shard];
      if (stats.empty()) stats.assign(3, 0);
      if (type == "shard_lost") ++stats[0];
      if (type == "shard_recovered") ++stats[1];
      if (type == "quorum_degraded") ++stats[2];
    }
  }
  *report += "events: " + std::to_string(timeline_count) + "\n";
  for (const auto& [type, count] : by_type) {
    *report += "  " + type + ": " + std::to_string(count) + "\n";
  }
  *report += "\n== alerts ==\n";
  if (alert_lines.empty()) {
    *report += "no alert transitions recorded\n";
  } else {
    for (const std::string& entry : alert_lines) {
      *report += entry + "\n";
    }
  }
  *report += "\n== shards ==\n";
  if (shard_stats.empty()) {
    *report += "no shard-attributed events (single-coordinator run)\n\n";
    return;
  }
  int64_t slowest_shard = -1;
  int64_t slowest_losses = 0;
  for (const auto& [shard, stats] : shard_stats) {
    *report += "shard " + std::to_string(shard) + ": lost=" +
               std::to_string(stats[0]) + " recovered=" +
               std::to_string(stats[1]) + "\n";
    if (stats[0] > slowest_losses) {
      slowest_losses = stats[0];
      slowest_shard = shard;
    }
  }
  if (slowest_shard >= 0) {
    *report += "slowest shard: " + std::to_string(slowest_shard) + " (" +
               std::to_string(slowest_losses) +
               " missed tick deadline(s))\n";
  } else {
    *report += "slowest shard: none (no losses recorded)\n";
  }
  *report += "\n";
}

void AppendMetricsSection(const std::string& metrics_path,
                          std::string* report) {
  std::string text;
  std::string error;
  if (!ReadFileToString(metrics_path, &text, &error)) {
    *report += "== metrics ==\nUNREADABLE: " + error + "\n\n";
    return;
  }
  *report += "== metrics (" + metrics_path + ") ==\n";
  int64_t firing = 0;
  int64_t rules = 0;
  for (const std::string& line : SplitLines(text)) {
    if (line.rfind("bitpush_alert_state", 0) != 0) continue;
    *report += line + "\n";
    ++rules;
    // Sample lines end in the gauge value; "... 1" means firing.
    const size_t space = line.find_last_of(' ');
    if (space != std::string::npos &&
        std::strtod(line.c_str() + space + 1, nullptr) != 0.0) {
      ++firing;
    }
  }
  if (rules == 0) {
    *report += "no bitpush_alert_state samples in dump\n";
  } else {
    *report += "alert rules firing at export: " + std::to_string(firing) +
               "/" + std::to_string(rules) + "\n";
  }
  *report += "\n";
}

int Main(int argc, char** argv) {
  std::string state_dir;
  std::string events;
  std::string metrics;
  std::string out = "-";
  std::string validate_events;
  FlagSet flags;
  flags.AddString("state_dir", &state_dir,
                  "campaign state directory (journal.wal/snapshot.bin)");
  flags.AddString("events", &events, "events JSONL dump (--events_out)");
  flags.AddString("metrics", &metrics,
                  "metrics dump in Prometheus text form (--metrics_out)");
  flags.AddString("out", &out, "report destination ('-' = stdout)");
  flags.AddString("validate_events", &validate_events,
                  "validate an events JSONL file and exit (CI mode)");
  flags.Parse(argc, argv);

  if (!validate_events.empty()) return ValidateEvents(validate_events);
  if (state_dir.empty() && events.empty() && metrics.empty()) {
    std::fprintf(stderr,
                 "bitpush_doctor: nothing to examine — pass --state_dir, "
                 "--events, and/or --metrics (or --validate_events)\n");
    return EXIT_FAILURE;
  }

  std::string report = "# bitpush_doctor report\n\n";
  if (!state_dir.empty()) AppendJournalSection(state_dir, &report);
  if (!events.empty()) AppendEventsSections(events, &report);
  if (!metrics.empty()) AppendMetricsSection(metrics, &report);

  std::string error;
  if (!obs::WriteTextFile(out, report, &error)) {
    std::fprintf(stderr, "bitpush_doctor: --out: %s\n", error.c_str());
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) { return bitpush::Main(argc, argv); }
