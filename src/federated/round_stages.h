// The stage and apply steps of a collection pass (AggregationServer::
// RunRound). A pass runs over chunks of its batch, each in three steps:
//
//   stage    copies each slot's client fields and its ledger lookup into
//            the chunk buffer: random reads that draw no randomness;
//   respond  the slot state machine, on the calling thread, in slot order:
//            every draw, fault roll, retry, hedge, journal append and
//            meter announcement (server.cc);
//   apply    adds the chunk's granted charges to the ledger rows.
//
// Stage and apply run on up to `workers` threads (util::WorkerGroup), the
// caller included; a step of fewer than kMinSlotsPerWorker slots per
// thread runs inline. The workers read the population and the ledger
// (stage) or update distinct ledger rows (apply), and write nothing to
// obs, so outcomes, draws and ledger bytes are the same at every budget.
//
// A charge must be decided against the ledger as it will read once every
// earlier grant is applied, so a staged lookup is good only while its
// client has no grant pending. The meter rows (and the ids of clients
// without one) of the pending grants are marked. When a marked client
// comes up (a cohort that repeats an index, a population that repeats an
// id), the chunk ends before that slot: its grants are applied and the
// next chunk is staged from there. A hedge's client is looked up when the
// hedge is issued; if it is marked, the grants are applied first and the
// chunk ends after that slot. Every meter cap therefore holds for any
// input.

#ifndef BITPUSH_FEDERATED_ROUND_STAGES_H_
#define BITPUSH_FEDERATED_ROUND_STAGES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/privacy_meter.h"
#include "federated/client.h"
#include "obs/trace.h"
#include "util/workers.h"

namespace bitpush {

// One slot of a chunk: what answering its request reads.
struct StagedSlot {
  ClientFields client;
  // The client's ledger lookup when the slot was staged; unset without a
  // meter.
  PrivacyMeter::ChargeLookup lookup;
};

class RoundStages {
 public:
  // The fewest slots a stage or apply step hands one thread, and the most
  // slots of a chunk: enough for every thread of a four-CPU budget, few
  // enough that a thread's clients, rows and slots stay in its own cache.
  static constexpr size_t kMinSlotsPerWorker = size_t{3} << 11;
  static constexpr size_t kChunkSlots = 4 * kMinSlotsPerWorker;
  // The most slots of a chunk that runs inline: its slots and the rows it
  // touched stay cached from the stage to the apply.
  static constexpr size_t kInlineChunkSlots = size_t{1} << 12;
  // Slots the threads of a step take at a time, so that a thread the
  // system is slow to run holds up little.
  static constexpr size_t kTaskSlots = kMinSlotsPerWorker / 4;

  // Stages clients of `clients`; charges `value_id` at `epsilon` on
  // `meter`, which may be null (no lookups, no charges).
  RoundStages(const std::vector<Client>& clients, PrivacyMeter* meter,
              int64_t value_id, double epsilon, int64_t workers);

  // Runs a collection pass over clients[indices[*]]: respond(slot, i) for
  // every i in order, with slot i staged. respond returns false when it
  // called Apply, so that the slots after i are staged again.
  // Each chunk's steps are round.stage, round.respond and round.apply
  // spans under `parent`, written by the calling thread.
  template <typename Respond>
  void RunPass(std::span<const int64_t> indices,
               const obs::TraceContext& parent, int64_t round_id,
               const Respond& respond);

  // clients[index] staged inline, for a slot outside the chunk (a hedge).
  StagedSlot StageOne(int64_t index) const;

  // Whether `slot`'s client has a grant pending, so that its lookup is
  // stale.
  bool Pending(const StagedSlot& slot) const {
    const size_t row = slot.lookup.row;
    if (row != PrivacyMeter::kNoRow) {
      return (marked_rows_[row / 64] >> (row % 64) & 1) != 0;
    }
    return marked_id_count_ > 0 && IdMarked(slot.client.id);
  }
  // Records that the meter granted `slot`'s charge. Its client must not
  // be Pending.
  void Granted(const StagedSlot& slot) {
    const size_t row = slot.lookup.row;
    grants_.push_back(
        Grant{slot.client.id, row, slot.lookup.value_in_row});
    if (row != PrivacyMeter::kNoRow) {
      marked_rows_[row / 64] |= uint64_t{1} << (row % 64);
    } else {
      MarkId(slot.client.id);
    }
  }
  // The apply step: adds every pending grant to the ledger rows, in place
  // on the threads for clients that have a row, then inline, in grant
  // order, for the rest (new rows, and counts kept in the meter's value
  // table); and unmarks them. RunPass applies each chunk; a hedge whose
  // client is Pending applies early, is staged again with StageOne, and
  // has respond return false.
  void Apply();

 private:
  // A grant, as the apply step needs it: the client, and its lookup's row
  // and value_in_row.
  struct Grant {
    int64_t client_id = 0;
    size_t row = PrivacyMeter::kNoRow;
    bool value_in_row = true;
  };

  // Runs run(begin, end) over [0, items) in tasks of kTaskSlots, on as
  // many threads as the items allow, or inline.
  template <typename RunRange>
  void Split(size_t items, const RunRange& run);
  // The stage step: fills chunk_ with clients[indices[*]].
  void Stage(std::span<const int64_t> indices);
  // Marks, and tells whether it has marked, the id of a client without a
  // row.
  void MarkId(int64_t client_id);
  bool IdMarked(int64_t client_id) const;
  // Gives marked_rows_ a bit for every row of the meter's client table.
  void SizeMarks();
  // The position of `client_id` in marked_ids_, or the free one where it
  // would go.
  size_t IdPosition(int64_t client_id) const;

  const std::vector<Client>& clients_;
  PrivacyMeter* const meter_;
  const int64_t value_id_;
  const double epsilon_;
  util::WorkerGroup workers_;
  std::vector<StagedSlot> chunk_;
  // The chunk's grants, in grant order.
  std::vector<Grant> grants_;
  // One bit per row of the meter's client table: marked rows.
  std::vector<uint64_t> marked_rows_;
  // Open-addressed set of the marked ids of clients without a row; a power
  // of two positions, at most half full, with an occupancy flag each.
  std::vector<int64_t> marked_ids_;
  std::vector<uint8_t> id_used_;
  size_t marked_id_count_ = 0;
};

template <typename RunRange>
void RoundStages::Split(size_t items, const RunRange& run) {
  const size_t threads = std::min(items / kMinSlotsPerWorker,
                                  static_cast<size_t>(workers_.workers()));
  if (threads <= 1) {
    run(size_t{0}, items);
    return;
  }
  workers_.Run(
      (items + kTaskSlots - 1) / kTaskSlots,
      [&](size_t task) {
        run(task * kTaskSlots, std::min(items, (task + 1) * kTaskSlots));
      },
      static_cast<int64_t>(threads));
}

template <typename Respond>
void RoundStages::RunPass(std::span<const int64_t> indices,
                          const obs::TraceContext& parent, int64_t round_id,
                          const Respond& respond) {
  // Each step of a chunk is a span under the caller's collect span.
  const auto describe = [&](obs::Span* span, size_t slots) {
    span->set_parent(parent);
    span->set_ids(-1, -1, round_id);
    span->AddNumeric("slots", static_cast<double>(slots));
  };
  // A chunk that ends early is followed by one of twice the slots that
  // ran, and chunks grow back from there.
  const size_t max_chunk_slots =
      workers_.workers() > 1 && indices.size() >= 2 * kMinSlotsPerWorker
          ? kChunkSlots
          : kInlineChunkSlots;
  size_t chunk_slots = max_chunk_slots;
  for (size_t begin = 0; begin < indices.size();) {
    obs::Span stage_span("round.stage", "federated");
    Stage(indices.subspan(begin,
                          std::min(chunk_slots, indices.size() - begin)));
    describe(&stage_span, chunk_.size());
    stage_span.End();
    obs::Span respond_span("round.respond", "federated");
    describe(&respond_span, chunk_.size());
    size_t ran = 0;
    while (ran < chunk_.size() && !Pending(chunk_[ran])) {
      const bool staged = respond(chunk_[ran], begin + ran);
      ++ran;
      if (!staged) break;
    }
    respond_span.End();
    obs::Span apply_span("round.apply", "federated");
    describe(&apply_span, grants_.size());
    Apply();
    apply_span.End();
    chunk_slots = ran < chunk_.size()
                      ? std::max<size_t>(1, 2 * ran)
                      : std::min(max_chunk_slots, 2 * chunk_slots);
    begin += ran;
  }
}

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_ROUND_STAGES_H_
