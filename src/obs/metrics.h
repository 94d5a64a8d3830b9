// Coordinator observability: a process-wide metrics registry of monotonic
// counters, gauges, and fixed-bucket histograms. The paper's deployment
// section (4.3) notes that server-side counters are the only debuggable
// artifact of a private collection — raw reports cannot be inspected — so
// every layer of the coordinator publishes its execution trail here.
//
// Determinism contract: each instrument is tagged kStable or kVolatile.
// kStable instruments are derived purely from the seeded simulation
// (cohorts, rounds, reports, the simulated LatencyModel clock, meter
// charges) and must be byte-identical across (a) two runs of the same
// seeded campaign and (b) a crash-recovered rerun of that campaign.
// kVolatile instruments may depend on wall clock, thread schedule, or
// process-local I/O (journal bytes, replay progress, scoped-timer
// latencies) and are excluded from determinism comparisons — the
// DeterministicMetricsSnapshot exporter (obs/export.h) drops them.
//
// Cost model: all mutating calls check the global enabled flag (one
// relaxed atomic load) and return immediately when observability is off,
// so instrumented hot paths stay within the <2% overhead budget enforced
// by bench_micro_throughput. Instruments are plain atomics, safe to
// update from any thread.
//
// Lifetime: the registry owns every instrument forever. Call sites cache
// the returned pointer in a function-local static; Reset() zeroes values
// but never deletes instruments, so cached pointers stay valid across
// tests.

#ifndef BITPUSH_OBS_METRICS_H_
#define BITPUSH_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace bitpush::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// Global enable switch. Off by default: an uninstrumented binary pays one
// relaxed load per call site and nothing else.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

enum class Determinism {
  // Seed-replay-invariant and recovery-exact: included in the
  // deterministic snapshot.
  kStable,
  // Wall clock / thread schedule / process-local I/O: exporters label it,
  // determinism comparisons drop it.
  kVolatile,
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

// Monotonic counter. Negative deltas are ignored (counters never regress).
class Counter {
 public:
  void Add(int64_t delta) {
    if (!Enabled() || delta <= 0) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Counter() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

// Last-write-wins gauge (plus Add for up/down adjustments).
class Gauge {
 public:
  void Set(double value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram with Prometheus "le" (less-or-equal) semantics:
// bucket i counts observations <= bounds[i]; one extra overflow bucket
// (le = +Inf) catches the rest. Bounds are fixed at registration.
class Histogram {
 public:
  void Observe(double value);

  // bounds().size() + 1 buckets; the last is the +Inf overflow bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  int64_t bucket_value(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct InstrumentInfo {
  std::string name;
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;
  Determinism determinism = Determinism::kStable;
};

// Thread-safe instrument registry. Get* registers on first use and returns
// the existing instrument afterwards (name, kind, determinism, and
// histogram bounds must match the first registration — a mismatch aborts,
// it is a programming error). Iteration is in name order so exports are
// canonical.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Default();

  Counter* GetCounter(std::string_view name, std::string_view help,
                      Determinism determinism);
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Determinism determinism);
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> bounds, Determinism determinism);

  // Zeroes every instrument's value. Instruments themselves are never
  // removed: call sites hold cached pointers into the registry.
  void Reset();

  // Visits instruments in name order. Exactly one of counter/gauge/
  // histogram is non-null per call, matching info.kind.
  void Visit(const std::function<void(const InstrumentInfo& info,
                                      const Counter* counter,
                                      const Gauge* gauge,
                                      const Histogram* histogram)>& visitor)
      const;

  size_t size() const;

 private:
  struct Entry {
    InstrumentInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrNull(std::string_view name) BITPUSH_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_
      BITPUSH_GUARDED_BY(mutex_);
};

// Wall-clock scoped timer feeding a histogram in seconds. When
// observability is disabled the constructor skips the clock read entirely,
// so a disabled timer costs one relaxed load at construction and one at
// destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) {
    if (histogram == nullptr || !Enabled()) return;
    histogram_ = histogram;
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (histogram_ == nullptr || !Enabled()) return;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    histogram_->Observe(elapsed.count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

// Default bucket bounds (seconds) for wall-clock latency histograms:
// 1us .. ~10s in powers of 10 with 1-2-5 steps.
std::vector<double> LatencySecondsBounds();

// Default bucket bounds for simulated-clock durations (minutes).
std::vector<double> SimMinutesBounds();

// Default bucket bounds for payload sizes (bytes).
std::vector<double> BytesBounds();

}  // namespace bitpush::obs

#endif  // BITPUSH_OBS_METRICS_H_
