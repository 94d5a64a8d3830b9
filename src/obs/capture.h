// Per-task capture of the order-dependent observability writes.
//
// Most instruments commute: counters add integers, and spans are
// kVolatile. Three kinds of write do not. A gauge Set keeps the last
// writer, a gauge Add and a histogram Observe sum doubles (floating-point
// addition is not associative), and an event takes the next sequence
// number and ring slot. When tasks run on several threads at once, those
// writes would land in whatever order the threads happen to run, and the
// stable streams (DeterministicMetricsSnapshot, DeterministicEventsSnapshot)
// would stop being a function of the seed.
//
// A TaskCapture holds them back instead. While a TaskCapture::Scope is
// installed on a thread, Gauge::Set/Add, Histogram::Observe and
// EventRecorder::Emit append to that capture's log and apply nothing. The
// thread that owns the order then calls Replay() on each task's capture in
// task order, which applies every write exactly as a sequential run would
// have: same last writer, same sums, same ring order and sequence numbers.
//
// Cost: the capture check sits behind the obs::Enabled() test, so with
// observability off a call site still costs one relaxed load. Repeated Sets
// of one gauge overwrite each other in the log, so a task that refreshes a
// gauge per report keeps one entry for it, not one per report.

#ifndef BITPUSH_OBS_CAPTURE_H_
#define BITPUSH_OBS_CAPTURE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"

namespace bitpush::obs {

class TaskCapture {
 public:
  TaskCapture() = default;
  TaskCapture(const TaskCapture&) = delete;
  TaskCapture& operator=(const TaskCapture&) = delete;

  // Routes the calling thread's order-dependent writes into `capture` for
  // the scope's lifetime (straight to the instruments when it is null),
  // then restores whatever was installed before.
  class Scope {
   public:
    explicit Scope(TaskCapture* capture);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TaskCapture* previous_;
  };

  // Applies the captured writes in the order they were made and empties
  // the log. The writes bypass any capture installed on the replaying
  // thread.
  void Replay();

 private:
  friend class Gauge;
  friend class Histogram;
  friend class EventRecorder;

  enum class Kind { kGaugeSet, kGaugeAdd, kObserve, kEvent };
  struct Write {
    Kind kind = Kind::kGaugeSet;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
    EventRecorder* recorder = nullptr;
    double value = 0.0;
    EventType type = EventType::kRoundOutcome;
    Determinism determinism = Determinism::kStable;
    EventArgs args;
  };

  void RecordGauge(Gauge* gauge, bool add, double value);
  void RecordObserve(Histogram* histogram, double value);
  void RecordEvent(EventRecorder* recorder, EventType type,
                   Determinism determinism, EventArgs args);

  std::vector<Write> writes_;
  // Gauges whose latest write in `writes_` is a Set, with its index: the
  // next Set of the same gauge overwrites that entry in place.
  std::vector<std::pair<const Gauge*, size_t>> last_set_;
};

}  // namespace bitpush::obs

#endif  // BITPUSH_OBS_CAPTURE_H_
