#include "federated/round_stages.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "util/check.h"

namespace bitpush {

namespace {

// How many slots ahead the stage step loads a client, and, half as far
// ahead, the ledger row it points to: far enough to cover a miss to
// memory, near enough that the lines are still cached when the slot runs.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

RoundStages::RoundStages(const std::vector<Client>& clients,
                         PrivacyMeter* meter, int64_t value_id,
                         double epsilon, int64_t workers)
    : clients_(clients),
      meter_(meter),
      value_(meter != nullptr ? meter->RegisterValue(value_id) : 0),
      epsilon_(epsilon),
      ahead_task_([this](size_t task) { RunAheadTask(task); }),
      workers_(workers) {
  // One buffer for every chunk of the round: the chunks' sizes vary (a
  // pass's last chunk, a pass without threads), and only the slots a
  // chunk uses are ever touched.
  chunk_.reserve(kChunkSlots);
  if (meter_ != nullptr) {
    // The rows are registered, so their number holds for the round.
    claimed_rows_.assign(static_cast<size_t>(kernels::WordsForBits(
                             static_cast<int64_t>(meter_->rows()))),
                         0);
  }
}

PrivacyMeter::ChargeLookup RoundStages::Look(int64_t client_id) const {
  const size_t row = meter_->Row(client_id);
  BITPUSH_CHECK(row != PrivacyMeter::kNoRow)
      << "client " << client_id << " is not registered with the meter";
  return meter_->Lookup(row, value_);
}

void RoundStages::StageRange(std::span<const int64_t> indices,
                             StagedSlot* out, size_t begin,
                             size_t end) const {
  const auto client_at = [&](size_t i) -> const Client& {
    return clients_[static_cast<size_t>(indices[i])];
  };
  for (size_t i = begin; i < end; ++i) {
    // A cohort is a shuffled permutation, so each slot's client and its
    // ledger row are random accesses: load them ahead.
    if (i + 2 * kPrefetchDistance < end) {
      __builtin_prefetch(&client_at(i + 2 * kPrefetchDistance));
    }
    if (meter_ != nullptr && i + kPrefetchDistance < end) {
      meter_->Prefetch(client_at(i + kPrefetchDistance).id());
    }
    StagedSlot& slot = out[i];
    slot.client = client_at(i).fields();
    if (meter_ != nullptr) slot.lookup = Look(slot.client.id);
  }
}

void RoundStages::Stage(std::span<const int64_t> indices) {
  BITPUSH_CHECK_LE(indices.size(), kChunkSlots);
  BITPUSH_CHECK(grants_.empty() && previous_.empty());
  chunk_.resize(indices.size());
  Split(indices.size(), [&](size_t begin, size_t end) {
    StageRange(indices, chunk_.data(), begin, end);
  });
}

StagedSlot RoundStages::StageOne(int64_t index) const {
  StagedSlot slot;
  slot.client = clients_[static_cast<size_t>(index)].fields();
  if (meter_ != nullptr) slot.lookup = Look(slot.client.id);
  return slot;
}

void RoundStages::StartAhead(std::span<const int64_t> ahead) {
  ahead_ = ahead;
  apply_tasks_ = (previous_.size() + kTaskSlots - 1) / kTaskSlots;
  const size_t stage_tasks = (ahead.size() + kTaskSlots - 1) / kTaskSlots;
  if (apply_tasks_ + stage_tasks == 0) return;
  next_.resize(ahead.size());
  applies_left_ = apply_tasks_;
  stages_left_ = stage_tasks;
  ahead_timed_ = obs::TracingEnabled();
  if (ahead_timed_) {
    ahead_start_us_ = obs::Tracer::NowMicros();
    applied_us_ = ahead_start_us_;
    staged_us_ = ahead_start_us_;
  }
  workers_.Start(apply_tasks_ + stage_tasks, ahead_task_);
}

void RoundStages::RunAheadTask(size_t task) {
  if (task < apply_tasks_) {
    const size_t end = std::min(previous_.size(), (task + 1) * kTaskSlots);
    for (size_t g = task * kTaskSlots; g < end; ++g) ApplyOne(previous_[g]);
    if (applies_left_.fetch_sub(1) == 1) {
      if (ahead_timed_) applied_us_ = obs::Tracer::NowMicros();
      applies_left_.notify_all();
    }
    return;
  }
  // A stage reads rows that the applies write: it starts once they are
  // all done.
  for (size_t left = applies_left_.load(); left != 0;
       left = applies_left_.load()) {
    applies_left_.wait(left);
  }
  const size_t begin = (task - apply_tasks_) * kTaskSlots;
  StageRange(ahead_, next_.data(), begin,
             std::min(ahead_.size(), begin + kTaskSlots));
  if (stages_left_.fetch_sub(1) == 1 && ahead_timed_) {
    staged_us_ = obs::Tracer::NowMicros();
  }
}

void RoundStages::FinishAhead() {
  if (!workers_.open()) return;
  obs::Span wait_span("round.wait", "federated");
  Describe(&wait_span, ahead_.size());
  workers_.Finish();
  if (wait_span.active()) {
    wait_span.AddNumeric("grants", static_cast<double>(
                                       apply_tasks_ > 0 ? previous_.size()
                                                        : 0));
    wait_span.AddNumeric("apply_us",
                         static_cast<double>(applied_us_ - ahead_start_us_));
    wait_span.AddNumeric(
        "stage_us",
        ahead_.empty() ? 0.0 : static_cast<double>(staged_us_ - applied_us_));
  }
}

StagedSlot RoundStages::StageHedge(int64_t index) {
  // The row is claimed before it is read: unclaimed, it has no grant in
  // the round, so no thread writes it.
  const bool fresh =
      meter_ == nullptr ||
      Claim(meter_->Row(clients_[static_cast<size_t>(index)].id()));
  return fresh ? StageOne(index) : Refresh(index);
}

StagedSlot RoundStages::Refresh(int64_t index) {
  FinishAhead();
  Apply();
  return StageOne(index);
}

void RoundStages::Advance() {
  // next_ was staged once the previous chunk's grants were applied, and
  // this chunk's grants become the previous chunk's.
  previous_.swap(grants_);
  grants_.clear();
  chunk_.swap(next_);
  ahead_ = {};
}

void RoundStages::Apply() {
  obs::Span apply_span("round.apply", "federated");
  Describe(&apply_span, grants_.size());
  // The previous chunk's grants are in by now.
  Split(grants_.size(), [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) ApplyOne(grants_[g]);
  });
  grants_.clear();
  previous_.clear();
}

void RoundStages::Describe(obs::Span* span, size_t slots) const {
  span->set_parent(parent_);
  span->set_ids(-1, -1, round_id_);
  span->AddNumeric("slots", static_cast<double>(slots));
}

}  // namespace bitpush
