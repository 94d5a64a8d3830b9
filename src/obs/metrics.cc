#include "obs/metrics.h"

#include <algorithm>

#include "obs/capture.h"
#include "util/check.h"

namespace bitpush::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
thread_local TaskCapture* t_capture = nullptr;
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  BITPUSH_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be sorted ascending";
}

void Gauge::Capture(bool add, double value) {
  internal::t_capture->RecordGauge(this, add, value);
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  if (internal::t_capture != nullptr) {
    internal::t_capture->RecordObserve(this, value);
    return;
  }
  Apply(value);
}

void Histogram::Apply(double value) {
  // First bound >= value is the "le" bucket; past-the-end is overflow.
  const size_t index = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (std::atomic<int64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Entry* Registry::FindOrNull(std::string_view name) {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              Determinism determinism) {
  const util::MutexLock lock(mutex_);
  if (Entry* entry = FindOrNull(name)) {
    BITPUSH_CHECK(entry->info.kind == InstrumentKind::kCounter)
        << "instrument " << std::string(name) << " re-registered as counter";
    BITPUSH_CHECK(entry->info.determinism == determinism)
        << "instrument " << std::string(name)
        << " re-registered with a different determinism tag";
    return entry->counter.get();
  }
  Entry& entry = entries_[std::string(name)];
  entry.info = {std::string(name), std::string(help),
                InstrumentKind::kCounter, determinism};
  entry.counter.reset(new Counter());
  return entry.counter.get();
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          Determinism determinism) {
  const util::MutexLock lock(mutex_);
  if (Entry* entry = FindOrNull(name)) {
    BITPUSH_CHECK(entry->info.kind == InstrumentKind::kGauge)
        << "instrument " << std::string(name) << " re-registered as gauge";
    BITPUSH_CHECK(entry->info.determinism == determinism)
        << "instrument " << std::string(name)
        << " re-registered with a different determinism tag";
    return entry->gauge.get();
  }
  Entry& entry = entries_[std::string(name)];
  entry.info = {std::string(name), std::string(help), InstrumentKind::kGauge,
                determinism};
  entry.gauge.reset(new Gauge());
  return entry.gauge.get();
}

Histogram* Registry::GetHistogram(std::string_view name, std::string_view help,
                                  std::vector<double> bounds,
                                  Determinism determinism) {
  const util::MutexLock lock(mutex_);
  if (Entry* entry = FindOrNull(name)) {
    BITPUSH_CHECK(entry->info.kind == InstrumentKind::kHistogram)
        << "instrument " << std::string(name) << " re-registered as histogram";
    BITPUSH_CHECK(entry->info.determinism == determinism)
        << "instrument " << std::string(name)
        << " re-registered with a different determinism tag";
    BITPUSH_CHECK(entry->histogram->bounds() == bounds)
        << "instrument " << std::string(name)
        << " re-registered with different bounds";
    return entry->histogram.get();
  }
  Entry& entry = entries_[std::string(name)];
  entry.info = {std::string(name), std::string(help),
                InstrumentKind::kHistogram, determinism};
  entry.histogram.reset(new Histogram(std::move(bounds)));
  return entry.histogram.get();
}

void Registry::Reset() {
  const util::MutexLock lock(mutex_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

void Registry::Visit(
    const std::function<void(const InstrumentInfo&, const Counter*,
                             const Gauge*, const Histogram*)>& visitor) const {
  const util::MutexLock lock(mutex_);
  for (const auto& [name, entry] : entries_) {
    visitor(entry.info, entry.counter.get(), entry.gauge.get(),
            entry.histogram.get());
  }
}

size_t Registry::size() const {
  const util::MutexLock lock(mutex_);
  return entries_.size();
}

std::vector<double> LatencySecondsBounds() {
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3,
          2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,
          5.0,  10.0};
}

std::vector<double> SimMinutesBounds() {
  return {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 240.0, 480.0};
}

}  // namespace bitpush::obs
