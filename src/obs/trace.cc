#include "obs/trace.h"

#include <functional>
#include <thread>

namespace bitpush::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

void SetTracingEnabled(bool enabled) {
  internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(SpanRecord record) {
  const util::MutexLock lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  const util::MutexLock lock(mutex_);
  return spans_;
}

// bitpush-lint: allow(unreached-function): seam into the live tracer, read by ObsTest.SpanRecordsIntoTracerAndExportsChromeJson and ObsTest.DisabledSpanIsInert
int64_t Tracer::span_count() const {
  const util::MutexLock lock(mutex_);
  return static_cast<int64_t>(spans_.size());
}

void Tracer::Reset() {
  const util::MutexLock lock(mutex_);
  spans_.clear();
}

int64_t Tracer::NowMicros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int64_t Tracer::NextSpanId() {
  static std::atomic<int64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(std::string_view name, std::string_view category) {
  if (!TracingEnabled()) return;
  active_ = true;
  record_.name = std::string(name);
  record_.category = std::string(category);
  record_.span_id = Tracer::NextSpanId();
  record_.trace_id = record_.span_id;  // a root starts its own trace
  record_.thread_id = static_cast<uint64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
  record_.wall_start_us = Tracer::NowMicros();
}

Span::~Span() { End(); }

void Span::set_ids(int64_t tick, int64_t query_index, int64_t round_id) {
  if (!active_) return;
  record_.tick = tick;
  record_.query_index = query_index;
  record_.round_id = round_id;
}

void Span::set_sim_minutes(double minutes) {
  if (!active_) return;
  record_.sim_minutes = minutes;
  record_.has_sim_minutes = true;
}

void Span::set_parent(const TraceContext& parent) {
  if (!active_ || !parent.valid()) return;
  record_.trace_id = parent.trace_id;
  record_.parent_span_id = parent.span_id;
}

TraceContext Span::context() const {
  if (!active_) return TraceContext{};
  return TraceContext{record_.trace_id, record_.span_id};
}

void Span::AddNumeric(std::string_view key, double value) {
  if (!active_) return;
  record_.numeric_args.emplace_back(std::string(key), value);
}

void Span::AddString(std::string_view key, std::string_view value) {
  if (!active_) return;
  record_.string_args.emplace_back(std::string(key), std::string(value));
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  record_.wall_duration_us = Tracer::NowMicros() - record_.wall_start_us;
  Tracer::Default().Record(std::move(record_));
}

}  // namespace bitpush::obs
