#include "obs/events.h"

#include <cstdio>
#include <utility>

#include "obs/capture.h"
#include "obs/export.h"
#include "util/check.h"

namespace bitpush::obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kRoundOutcome:
      return "round_outcome";
    case EventType::kShardLost:
      return "shard_lost";
    case EventType::kShardRecovered:
      return "shard_recovered";
    case EventType::kQuorumDegraded:
      return "quorum_degraded";
    case EventType::kMeterCharge:
      return "meter_charge";
    case EventType::kMeterDenial:
      return "meter_denial";
    case EventType::kRetryStorm:
      return "retry_storm";
    case EventType::kBreakerTransition:
      return "breaker_transition";
    case EventType::kReplayMilestone:
      return "replay_milestone";
    case EventType::kAlertFired:
      return "alert_fired";
    case EventType::kAlertResolved:
      return "alert_resolved";
  }
  return "unknown";
}

EventRecorder& EventRecorder::Default() {
  static EventRecorder* recorder = new EventRecorder();  // leaked singleton
  return *recorder;
}

void EventRecorder::Emit(EventType type, Determinism determinism,
                         EventArgs args) {
  if (internal::t_capture != nullptr) {
    internal::t_capture->RecordEvent(this, type, determinism, std::move(args));
    return;
  }
  Append(type, determinism, std::move(args));
}

void EventRecorder::Append(EventType type, Determinism determinism,
                           EventArgs args) {
  const util::MutexLock lock(mutex_);
  Ring& r = ring(determinism);
  EventRecord record;
  record.seq = r.next_seq++;
  record.type = type;
  record.determinism = determinism;
  record.args = std::move(args);
  if (r.entries.size() >= capacity_) {
    r.entries.erase(r.entries.begin());
    ++r.dropped;
  }
  r.entries.push_back(std::move(record));
}

std::vector<EventRecord> EventRecorder::Snapshot(
    Determinism determinism) const {
  const util::MutexLock lock(mutex_);
  return ring(determinism).entries;
}

int64_t EventRecorder::dropped(Determinism determinism) const {
  const util::MutexLock lock(mutex_);
  return ring(determinism).dropped;
}

// bitpush-lint: allow(unreached-function): seam into a live ring's sequence counter, read by ObsTest.EmitEventIsANoOpWhenObsDisabled and ObsTest.EventRingEvictsOldestAndCountsDrops
int64_t EventRecorder::emitted(Determinism determinism) const {
  const util::MutexLock lock(mutex_);
  return ring(determinism).next_seq;
}

// bitpush-lint: allow(unreached-function): seam that ObsTest.EventRingEvictsOldestAndCountsDrops uses to fill a ring, and ShardDeterminismTest.ThreadedObsStreamsMatchReference to hold a whole run
void EventRecorder::SetCapacity(size_t capacity) {
  BITPUSH_CHECK_GE(capacity, 1u);
  const util::MutexLock lock(mutex_);
  capacity_ = capacity;
  for (Ring* r : {&stable_, &volatile_}) {
    while (r->entries.size() > capacity_) {
      r->entries.erase(r->entries.begin());
      ++r->dropped;
    }
  }
}

size_t EventRecorder::capacity() const {
  const util::MutexLock lock(mutex_);
  return capacity_;
}

void EventRecorder::Reset() {
  const util::MutexLock lock(mutex_);
  stable_ = Ring{};
  volatile_ = Ring{};
}

void EmitEvent(EventType type, Determinism determinism, EventArgs args) {
  if (!Enabled()) return;
  EventRecorder::Default().Emit(type, determinism, std::move(args));
}

std::string FormatStableDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

void AppendEventJson(const EventRecord& record, std::string* out) {
  *out += "{\"seq\":" + std::to_string(record.seq) + ",\"type\":\"";
  *out += EventTypeName(record.type);
  *out += "\",\"determinism\":\"";
  *out += record.determinism == Determinism::kStable ? "stable" : "volatile";
  *out += "\"";
  const EventArgs& args = record.args;
  if (args.tick >= 0) *out += ",\"tick\":" + std::to_string(args.tick);
  if (args.query_index >= 0) {
    *out += ",\"query\":" + std::to_string(args.query_index);
  }
  if (args.round_id >= 0) {
    *out += ",\"round\":" + std::to_string(args.round_id);
  }
  if (args.shard >= 0) *out += ",\"shard\":" + std::to_string(args.shard);
  if (args.has_sim_minutes) {
    *out += ",\"sim_minutes\":" + FormatStableDouble(args.sim_minutes);
  }
  if (!args.detail.empty()) {
    *out += ",\"detail\":\"" + JsonEscape(args.detail) + "\"";
  }
  *out += "}\n";
}

}  // namespace

std::string EventsJsonl(const EventRecorder& recorder) {
  std::string out;
  for (const Determinism d :
       {Determinism::kStable, Determinism::kVolatile}) {
    for (const EventRecord& record : recorder.Snapshot(d)) {
      AppendEventJson(record, &out);
    }
  }
  return out;
}

std::string DeterministicEventsSnapshot(const EventRecorder& recorder) {
  std::string out = "# bitpush deterministic events snapshot v1\n";
  const int64_t dropped = recorder.dropped(Determinism::kStable);
  if (dropped > 0) {
    // A truncated stable stream can no longer be compared byte-for-byte
    // from seq 0; say so in the snapshot instead of silently starting in
    // the middle.
    out += "# dropped " + std::to_string(dropped) + " oldest stable events\n";
  }
  for (const EventRecord& record :
       recorder.Snapshot(Determinism::kStable)) {
    out += "event " + std::to_string(record.seq) + " ";
    out += EventTypeName(record.type);
    const EventArgs& args = record.args;
    if (args.tick >= 0) out += " tick=" + std::to_string(args.tick);
    if (args.query_index >= 0) {
      out += " query=" + std::to_string(args.query_index);
    }
    if (args.round_id >= 0) {
      out += " round=" + std::to_string(args.round_id);
    }
    if (args.shard >= 0) out += " shard=" + std::to_string(args.shard);
    if (args.has_sim_minutes) {
      out += " minutes=" + FormatStableDouble(args.sim_minutes);
    }
    if (!args.detail.empty()) out += " " + args.detail;
    out += "\n";
  }
  return out;
}

}  // namespace bitpush::obs
