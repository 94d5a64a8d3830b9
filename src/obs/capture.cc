#include "obs/capture.h"

#include <algorithm>
#include <utility>

namespace bitpush::obs {

void TaskCapture::RecordGauge(Gauge* gauge, bool add, double value) {
  const auto last = std::find_if(
      last_set_.begin(), last_set_.end(),
      [gauge](const std::pair<const Gauge*, size_t>& entry) {
        return entry.first == gauge;
      });
  if (last != last_set_.end()) {
    if (!add) {
      // Nothing wrote this gauge since its last Set: the new Set replaces it.
      writes_[last->second].value = value;
      return;
    }
    last_set_.erase(last);
  }
  if (!add) last_set_.emplace_back(gauge, writes_.size());
  Write write;
  write.kind = add ? Kind::kGaugeAdd : Kind::kGaugeSet;
  write.gauge = gauge;
  write.value = value;
  writes_.push_back(std::move(write));
}

void TaskCapture::RecordObserve(Histogram* histogram, double value) {
  Write write;
  write.kind = Kind::kObserve;
  write.histogram = histogram;
  write.value = value;
  writes_.push_back(std::move(write));
}

void TaskCapture::RecordEvent(EventRecorder* recorder, EventType type,
                              Determinism determinism, EventArgs args) {
  Write write;
  write.kind = Kind::kEvent;
  write.recorder = recorder;
  write.type = type;
  write.determinism = determinism;
  write.args = std::move(args);
  writes_.push_back(std::move(write));
}

void TaskCapture::Replay() {
  for (Write& write : writes_) {
    switch (write.kind) {
      case Kind::kGaugeSet:
        write.gauge->value_.store(write.value, std::memory_order_relaxed);
        break;
      case Kind::kGaugeAdd:
        write.gauge->value_.fetch_add(write.value, std::memory_order_relaxed);
        break;
      case Kind::kObserve:
        write.histogram->Apply(write.value);
        break;
      case Kind::kEvent:
        write.recorder->Append(write.type, write.determinism,
                               std::move(write.args));
        break;
    }
  }
  writes_.clear();
  last_set_.clear();
}

}  // namespace bitpush::obs
