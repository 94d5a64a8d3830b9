// Flight recorder: a bounded ring of typed structured events — the
// coordinator's black box. Where the metrics registry (obs/metrics.h)
// answers "how many", the event ring answers "what happened, in order":
// round outcomes, shard losses and recoveries, quorum degradation, meter
// charges and denials, retry storms, breaker transitions, journal replay
// milestones, and alert transitions.
//
// Determinism contract: every event carries the same kStable/kVolatile
// tag as the metrics registry. kStable events are derived purely from the
// seeded simulation and are emitted at exactly-once points shared by the
// live, journal-restored, and recovery-replay paths — so a crash-recovered
// campaign reproduces the stable event stream byte-for-byte
// (DeterministicEventsSnapshot; pinned by tests/determinism_test.cc).
// kVolatile events (replay milestones, shard delivery, journal growth) may
// differ run to run and live in a separate ring so volatile spam can never
// evict or reorder a stable event.
//
// Cost model: EmitEvent checks obs::Enabled() (one relaxed atomic load)
// and returns immediately when observability is off; the enabled path is
// one mutex acquisition plus a ring-slot move. bench_micro_throughput's
// obs-overhead guard covers both paths. An event emitted under a
// TaskCapture (obs/capture.h) is logged instead, and takes its sequence
// number when the capture is replayed.
//
// Lifetime: EventRecorder::Default() is a leaked process-wide singleton,
// mirroring Registry::Default(). Reset() clears the rings and counters but
// the recorder itself is never destroyed.

#ifndef BITPUSH_OBS_EVENTS_H_
#define BITPUSH_OBS_EVENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace bitpush::obs {

enum class EventType {
  kRoundOutcome,
  kShardLost,
  kShardRecovered,
  kQuorumDegraded,
  kMeterCharge,
  kMeterDenial,
  kRetryStorm,
  kBreakerTransition,
  kReplayMilestone,
  kAlertFired,
  kAlertResolved,
};

const char* EventTypeName(EventType type);

// Structured payload of one event. Unset coordinate fields stay at their
// sentinel (-1) and are omitted by the exporters.
struct EventArgs {
  int64_t tick = -1;
  int64_t query_index = -1;
  int64_t round_id = -1;
  int64_t shard = -1;
  // Simulated-clock minutes; exported when `has_sim_minutes` is set.
  double sim_minutes = 0.0;
  bool has_sim_minutes = false;
  // Free-form detail, e.g. "granted bits=12" or an alert rule name. Must
  // itself be deterministic for kStable events (no pointers, no wall
  // clock, canonical %.17g for doubles — see FormatStableDouble).
  std::string detail;
};

struct EventRecord {
  // Per-determinism-class monotonic sequence number, assigned at emission.
  int64_t seq = 0;
  EventType type = EventType::kRoundOutcome;
  Determinism determinism = Determinism::kStable;
  EventArgs args;
};

// Bounded dual-ring event recorder. Stable and volatile events are kept in
// separate rings with separate sequence counters: the stable stream's
// byte-identical replay guarantee must hold no matter how much volatile
// traffic (replay milestones, per-tick shard events) a recovered run adds.
class EventRecorder {
 public:
  EventRecorder() = default;
  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  static EventRecorder& Default();

  // Appends to the ring, or to the calling thread's TaskCapture if one is
  // installed.
  void Emit(EventType type, Determinism determinism, EventArgs args);

  // Oldest-first copy of one ring.
  std::vector<EventRecord> Snapshot(Determinism determinism) const;

  // Events emitted into a full ring evict the oldest entry; the eviction
  // count per ring is kept so exports can say "N older events dropped".
  int64_t dropped(Determinism determinism) const;
  // Total events ever emitted into a ring (== next seq).
  int64_t emitted(Determinism determinism) const;

  // Per-ring capacity. Shrinking drops the oldest entries (counted as
  // dropped). Capacity 0 is rejected.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  // Clears both rings and zeroes the sequence/dropped counters.
  void Reset();

 private:
  struct Ring {
    std::vector<EventRecord> entries;  // oldest-first
    int64_t next_seq = 0;
    int64_t dropped = 0;
  };

  friend class TaskCapture;
  void Append(EventType type, Determinism determinism, EventArgs args);

  Ring& ring(Determinism determinism) BITPUSH_REQUIRES(mutex_) {
    return determinism == Determinism::kStable ? stable_ : volatile_;
  }
  const Ring& ring(Determinism determinism) const BITPUSH_REQUIRES(mutex_) {
    return determinism == Determinism::kStable ? stable_ : volatile_;
  }

  mutable util::Mutex mutex_;
  size_t capacity_ BITPUSH_GUARDED_BY(mutex_) = 4096;
  Ring stable_ BITPUSH_GUARDED_BY(mutex_);
  Ring volatile_ BITPUSH_GUARDED_BY(mutex_);
};

// Emission entry point used by instrumented call sites. The determinism
// tag is spelled at the call site (never inside a helper) so
// bitpush_lint's obs-stability check can see it. No-op when obs is
// disabled.
void EmitEvent(EventType type, Determinism determinism, EventArgs args);

// Canonical %.17g formatting for doubles embedded in kStable event
// details — the same canonicalization DeterministicMetricsSnapshot uses.
std::string FormatStableDouble(double value);

// Exporters (declared here rather than obs/export.h so event consumers
// need only this header; implemented in events.cc).
//
// EventsJsonl: one JSON object per line per event, both rings, stable
// ring first. Machine-readable dump for --events_out and bitpush_doctor.
std::string EventsJsonl(const EventRecorder& recorder =
                            EventRecorder::Default());

// DeterministicEventsSnapshot: the stable ring only, canonical text form.
// Two runs of the same seeded campaign — including a crash-recovered
// rerun — must produce byte-identical snapshots.
std::string DeterministicEventsSnapshot(
    const EventRecorder& recorder = EventRecorder::Default());

}  // namespace bitpush::obs

#endif  // BITPUSH_OBS_EVENTS_H_
