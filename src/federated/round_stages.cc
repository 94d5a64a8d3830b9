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

// Positions marked_ids_ starts with.
constexpr size_t kInitialIdPositions = 1024;

size_t HashPosition(int64_t client_id, size_t mask) {
  return static_cast<size_t>(
             (static_cast<uint64_t>(client_id) * 0x9e3779b97f4a7c15ULL) >>
             32) &
         mask;
}

}  // namespace

RoundStages::RoundStages(const std::vector<Client>& clients,
                         PrivacyMeter* meter, int64_t value_id,
                         double epsilon, int64_t workers)
    : clients_(clients),
      meter_(meter),
      value_id_(value_id),
      epsilon_(epsilon),
      ahead_task_([this](size_t task) { RunAheadTask(task); }),
      workers_(workers) {
  // One buffer for every chunk of the round: the chunks' sizes vary (a
  // pass's last chunk, the chunks after a repeat), and only the slots a
  // chunk uses are ever touched.
  chunk_.reserve(kChunkSlots);
  SizeMarks();
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
    if (meter_ != nullptr) {
      slot.lookup = meter_->Lookup(slot.client.id, value_id_);
    }
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
  if (meter_ != nullptr) {
    slot.lookup = meter_->Lookup(slot.client.id, value_id_);
  }
  return slot;
}

void RoundStages::StartAhead(std::span<const int64_t> ahead) {
  ahead_ = ahead;
  apply_tasks_ =
      previous_applied_ ? 0 : (previous_.size() + kTaskSlots - 1) / kTaskSlots;
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

bool RoundStages::StageHedge(int64_t index, StagedSlot* slot) {
  FinishAhead();
  *slot = StageOne(index);
  // The lookup follows every applied grant: only this chunk's are
  // pending.
  const size_t row = slot->lookup.row;
  const bool pending = row != PrivacyMeter::kNoRow
                           ? Marked(marked_rows_, row)
                           : marked_ids_.Contains(slot->client.id);
  if (!pending) return false;
  Apply();
  *slot = StageOne(index);
  return true;
}

bool RoundStages::Advance() {
  // next_ was staged once the previous chunk's grants were applied, so
  // their marks go.
  Unmark(previous_, &previous_rows_);
  previous_ids_.Clear();
  previous_applied_ = inserts_ > 0;
  if (previous_applied_) {
    const size_t rows = meter_->client_table_rows();
    obs::Span apply_span("round.apply", "federated");
    Describe(&apply_span, grants_.size());
    ApplyGrants();
    if (meter_->client_table_rows() != rows) {
      // The client table grew and every row moved: next_ is stale.
      previous_.clear();
      Forget();
      return false;
    }
  }
  // This chunk's grants become the previous chunk's.
  previous_.swap(grants_);
  grants_.clear();
  inserts_ = 0;
  previous_rows_.swap(marked_rows_);
  std::swap(previous_ids_, marked_ids_);
  chunk_.swap(next_);
  ahead_ = {};
  return true;
}

void RoundStages::ApplyGrants() {
  const size_t n = grants_.size();
  Split(n, [&](size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      if (grants_[e].in_place()) ApplyOne(grants_[e]);
    }
  });
  // New rows go in alone and in grant order, since an insert can move
  // every row; so do counts kept in the value table. Their rows are
  // loaded ahead, as in the stage step.
  for (size_t e = 0; e < n; ++e) {
    if (e + kPrefetchDistance < n &&
        !grants_[e + kPrefetchDistance].in_place()) {
      meter_->Prefetch(grants_[e + kPrefetchDistance].client_id);
    }
    if (!grants_[e].in_place()) ApplyOne(grants_[e]);
  }
}

void RoundStages::ApplyOne(const Grant& grant) const {
  PrivacyMeter::ChargeLookup lookup;
  lookup.row = grant.row;
  lookup.value_in_row = grant.value_in_row;
  meter_->ApplyCharge(grant.client_id, value_id_, epsilon_, lookup);
}

void RoundStages::Apply() {
  // The chunk staged ahead read the ledger before these grants.
  ahead_ = {};
  if (grants_.empty() && previous_.empty()) return;
  ApplyGrants();
  Forget();
}

void RoundStages::Forget() {
  Unmark(grants_, &marked_rows_);
  Unmark(previous_, &previous_rows_);
  marked_ids_.Clear();
  previous_ids_.Clear();
  grants_.clear();
  inserts_ = 0;
  previous_.clear();
  ahead_ = {};
  SizeMarks();
}

void RoundStages::Unmark(const std::vector<Grant>& grants,
                         std::vector<uint64_t>* marks) {
  // One by one, or all at once when that is cheaper.
  if (64 * grants.size() < marks->size()) {
    for (const Grant& grant : grants) {
      if (grant.row != PrivacyMeter::kNoRow) {
        (*marks)[grant.row / 64] &= ~(uint64_t{1} << (grant.row % 64));
      }
    }
  } else {
    std::fill(marks->begin(), marks->end(), 0);
  }
}

void RoundStages::SizeMarks() {
  if (meter_ == nullptr) return;
  const size_t words = static_cast<size_t>(kernels::WordsForBits(
      static_cast<int64_t>(meter_->client_table_rows())));
  if (marked_rows_.size() < words) marked_rows_.resize(words, 0);
  // The previous chunk's marks exist only in a pass that has threads.
  if (next_.capacity() > 0 && previous_rows_.size() < words) {
    previous_rows_.resize(words, 0);
  }
}

void RoundStages::Describe(obs::Span* span, size_t slots) const {
  span->set_parent(parent_);
  span->set_ids(-1, -1, round_id_);
  span->AddNumeric("slots", static_cast<double>(slots));
}

size_t RoundStages::IdMarks::Position(int64_t client_id) const {
  const size_t mask = ids_.size() - 1;
  size_t position = HashPosition(client_id, mask);
  while (used_[position] != 0 && ids_[position] != client_id) {
    position = (position + 1) & mask;
  }
  return position;
}

void RoundStages::IdMarks::Mark(int64_t client_id) {
  if (2 * (count_ + 1) > ids_.size()) {
    // Double the set and put back the ids it holds.
    std::vector<int64_t> ids;
    ids.reserve(count_);
    for (size_t p = 0; p < ids_.size(); ++p) {
      if (used_[p] != 0) ids.push_back(ids_[p]);
    }
    const size_t positions = std::max(kInitialIdPositions, 2 * ids_.size());
    ids_.assign(positions, 0);
    used_.assign(positions, 0);
    for (const int64_t id : ids) {
      const size_t position = Position(id);
      ids_[position] = id;
      used_[position] = 1;
    }
  }
  const size_t position = Position(client_id);
  if (used_[position] != 0) return;
  ids_[position] = client_id;
  used_[position] = 1;
  ++count_;
}

void RoundStages::IdMarks::Clear() {
  if (count_ == 0) return;
  std::fill(used_.begin(), used_.end(), 0);
  count_ = 0;
}

}  // namespace bitpush
