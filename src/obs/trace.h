// Structured span tracing over the coordinator's execution hierarchy:
//
//   campaign tick
//     └── query (one scheduled CampaignQuery)
//           └── round (1 = probe, 2 = adaptive)
//                 ├── assign/collect (per-round transport phases)
//                 └── aggregate
//   journal / snapshot / recovery (persist-layer spans, outside the
//   campaign hierarchy)
//
// Every span carries dual clocks. The wall clock (steady_clock
// microseconds since the tracer epoch) orders spans for humans and for the
// Chrome trace-event export; it is kVolatile — excluded from determinism
// comparisons. The simulated LatencyModel clock (minutes, attached via
// set_sim_minutes) is deterministic and seed-replay-invariant; it rides in
// the span's args.
//
// Tracing has its own enable switch, separate from metrics: spans allocate
// strings and append to a shared buffer, so they are opt-in (--trace_out)
// while metrics can stay on. A disabled Span constructs inert: no clock
// read, no strings, no lock.

#ifndef BITPUSH_OBS_TRACE_H_
#define BITPUSH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace bitpush::obs {

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}
void SetTracingEnabled(bool enabled);

// Propagatable trace context: the (trace, span) coordinates a parent span
// hands to work it fans out — across call stacks or across the shard wire
// (ShardTickFrame carries one so merge-tier spans parent per-shard spans;
// see federated/shard/merge.h). Ids are positive; zero means unset.
struct TraceContext {
  int64_t trace_id = 0;
  int64_t span_id = 0;
  bool valid() const { return trace_id > 0 && span_id > 0; }
};

// One completed span, ready for export.
struct SpanRecord {
  std::string name;
  std::string category;
  // Trace hierarchy: ids are process-unique positive integers allocated at
  // span start; parent_span_id = 0 marks a root span. A span with no
  // explicit parent starts its own trace (trace_id == span_id).
  int64_t trace_id = 0;
  int64_t span_id = 0;
  int64_t parent_span_id = 0;
  // Hierarchy coordinates; negative means unset. Exported as args.
  int64_t tick = -1;
  int64_t query_index = -1;
  int64_t round_id = -1;
  // Simulated-clock duration in LatencyModel minutes (deterministic).
  // Exported as an arg, never as the trace timestamp.
  double sim_minutes = 0.0;
  bool has_sim_minutes = false;
  // Wall clock, microseconds relative to the tracer epoch (kVolatile).
  int64_t wall_start_us = 0;
  int64_t wall_duration_us = 0;
  uint64_t thread_id = 0;
  // Extra args: numeric (exported as JSON numbers) and string.
  std::vector<std::pair<std::string, double>> numeric_args;
  std::vector<std::pair<std::string, std::string>> string_args;
};

// Collects completed spans. Thread-safe: spans may finish on several
// threads in parallel.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Default();

  void Record(SpanRecord record);
  std::vector<SpanRecord> Snapshot() const;
  int64_t span_count() const;
  void Reset();

  // Microseconds since the process-wide tracer epoch (first use).
  static int64_t NowMicros();

  // Next process-unique positive span id.
  static int64_t NextSpanId();

 private:
  mutable util::Mutex mutex_;
  std::vector<SpanRecord> spans_ BITPUSH_GUARDED_BY(mutex_);
};

// RAII span: starts timing at construction, records into the default
// tracer at End() (or destruction). Inert when tracing is disabled.
class Span {
 public:
  Span(std::string_view name, std::string_view category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_ids(int64_t tick, int64_t query_index, int64_t round_id);
  void set_sim_minutes(double minutes);
  // Parents this span under `parent` (adopting its trace id). A no-op when
  // the span is inert or `parent` is invalid, so contexts decoded off the
  // wire can be passed through unconditionally.
  void set_parent(const TraceContext& parent);
  void AddNumeric(std::string_view key, double value);
  void AddString(std::string_view key, std::string_view value);
  void End();

  // This span's propagatable context ({0, 0} when tracing is disabled).
  TraceContext context() const;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

}  // namespace bitpush::obs

#endif  // BITPUSH_OBS_TRACE_H_
