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
      workers_(workers) {
  // One buffer for every chunk of the round: the chunks' sizes vary (a
  // pass's last chunk, the chunks after a repeat), and only the slots a
  // chunk uses are ever touched.
  chunk_.reserve(kChunkSlots);
  SizeMarks();
}

void RoundStages::Stage(std::span<const int64_t> indices) {
  BITPUSH_CHECK_LE(indices.size(), kChunkSlots);
  BITPUSH_CHECK(grants_.empty());
  const size_t n = indices.size();
  chunk_.resize(n);
  const auto stage_range = [&](size_t begin, size_t end) {
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
      StagedSlot& slot = chunk_[i];
      slot.client = client_at(i).fields();
      if (meter_ != nullptr) {
        slot.lookup = meter_->Lookup(slot.client.id, value_id_);
      }
    }
  };
  Split(n, stage_range);
}

StagedSlot RoundStages::StageOne(int64_t index) const {
  StagedSlot slot;
  slot.client = clients_[static_cast<size_t>(index)].fields();
  if (meter_ != nullptr) {
    slot.lookup = meter_->Lookup(slot.client.id, value_id_);
  }
  return slot;
}

size_t RoundStages::IdPosition(int64_t client_id) const {
  const size_t mask = marked_ids_.size() - 1;
  size_t position = HashPosition(client_id, mask);
  while (id_used_[position] != 0 && marked_ids_[position] != client_id) {
    position = (position + 1) & mask;
  }
  return position;
}

bool RoundStages::IdMarked(int64_t client_id) const {
  return id_used_[IdPosition(client_id)] != 0;
}

void RoundStages::MarkId(int64_t client_id) {
  if (2 * (marked_id_count_ + 1) > marked_ids_.size()) {
    // Double the set and put back the ids it holds.
    std::vector<int64_t> ids;
    ids.reserve(marked_id_count_);
    for (size_t p = 0; p < marked_ids_.size(); ++p) {
      if (id_used_[p] != 0) ids.push_back(marked_ids_[p]);
    }
    const size_t positions =
        std::max(kInitialIdPositions, 2 * marked_ids_.size());
    marked_ids_.assign(positions, 0);
    id_used_.assign(positions, 0);
    for (const int64_t id : ids) {
      const size_t position = IdPosition(id);
      marked_ids_[position] = id;
      id_used_[position] = 1;
    }
  }
  const size_t position = IdPosition(client_id);
  if (id_used_[position] != 0) return;
  marked_ids_[position] = client_id;
  id_used_[position] = 1;
  ++marked_id_count_;
}

void RoundStages::Apply() {
  if (grants_.empty()) return;
  const auto in_place = [](const Grant& grant) {
    return grant.row != PrivacyMeter::kNoRow && grant.value_in_row;
  };
  const auto apply = [&](const Grant& grant) {
    PrivacyMeter::ChargeLookup lookup;
    lookup.row = grant.row;
    lookup.value_in_row = grant.value_in_row;
    meter_->ApplyCharge(grant.client_id, value_id_, epsilon_, lookup);
  };
  const size_t n = grants_.size();
  Split(n, [&](size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      if (in_place(grants_[e])) apply(grants_[e]);
    }
  });
  // New rows go in alone and in grant order, since an insert can move
  // every row; so do counts kept in the value table. Their rows are
  // loaded ahead, as in the stage step.
  for (size_t e = 0; e < n; ++e) {
    if (e + kPrefetchDistance < n &&
        !in_place(grants_[e + kPrefetchDistance])) {
      meter_->Prefetch(grants_[e + kPrefetchDistance].client_id);
    }
    if (!in_place(grants_[e])) apply(grants_[e]);
  }
  // Unmark the rows one by one, or all at once when that is cheaper.
  if (64 * n < marked_rows_.size()) {
    for (const Grant& grant : grants_) {
      if (grant.row != PrivacyMeter::kNoRow) {
        marked_rows_[grant.row / 64] &= ~(uint64_t{1} << (grant.row % 64));
      }
    }
  } else {
    std::fill(marked_rows_.begin(), marked_rows_.end(), 0);
  }
  if (marked_id_count_ > 0) {
    std::fill(id_used_.begin(), id_used_.end(), 0);
    marked_id_count_ = 0;
  }
  grants_.clear();
  SizeMarks();
}

void RoundStages::SizeMarks() {
  if (meter_ == nullptr) return;
  const size_t words = static_cast<size_t>(kernels::WordsForBits(
      static_cast<int64_t>(meter_->client_table_rows())));
  if (marked_rows_.size() < words) marked_rows_.resize(words, 0);
}

}  // namespace bitpush
