// The steps of a collection pass (AggregationServer::RunRound). A pass
// runs over chunks of its batch, each in three steps:
//
//   stage    copies each slot's client fields and its ledger lookup into
//            a chunk buffer: random reads that draw no randomness;
//   respond  the slot state machine, on the calling thread, in slot order:
//            every draw, fault roll, retry, hedge, journal append and
//            meter announcement (server.cc);
//   apply    adds the chunk's granted charges to the ledger rows.
//
// A pass with threads (a budget of `workers` > 1 and at least
// 2 × kMinSlotsPerWorker slots) is a pipeline. While the calling thread
// responds chunk k, the other threads (util::WorkerGroup) add chunk k-1's
// grants to their rows in place and then stage chunk k+1 into a second
// buffer; the caller waits for them (round.wait) only once chunk k has
// run, and then runs what no thread has taken yet itself. A pass without
// threads runs each chunk's steps in turn on the caller. The threads read
// the population and the ledger (stage) or update distinct ledger rows
// (apply), and write nothing to obs, so outcomes, draws and ledger bytes
// are the same at every budget.
//
// A charge must be decided against the ledger as it will read once every
// earlier grant is applied, so a staged lookup is good only while its
// client has no grant pending: none earlier in its own chunk, and none in
// the chunk before, which was staged before that chunk's grants were
// applied. The meter rows (and the ids of clients without one) of those
// grants are marked. When a marked client comes up (a cohort that repeats
// an index, a population that repeats an id), the chunk ends before that
// slot: every pending grant is applied and the next chunk is staged from
// there. Whatever must read or change the ledger as it stands first
// finishes the threads' work:
//   - a hedge, whose client is looked up when it is issued; if this
//     chunk's grants hold one of the client's, they are applied first and
//     the chunk ends after that slot;
//   - a grant that adds a row (or a count to the meter's value table): a
//     chunk that made one has all its grants applied alone once it has
//     run. If an insert grew the client table, every row moved, and the
//     next chunk is staged again from the new rows.
// Every meter cap therefore holds for any input.

#ifndef BITPUSH_FEDERATED_ROUND_STAGES_H_
#define BITPUSH_FEDERATED_ROUND_STAGES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
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
  // The threads' tasks hold its address.
  RoundStages(const RoundStages&) = delete;
  RoundStages& operator=(const RoundStages&) = delete;

  // Runs a collection pass over clients[indices[*]]: respond(slot, i) for
  // every i in order, with slot i staged. respond returns false when its
  // hedge applied the pending grants (StageHedge), so that the slots after
  // i are staged again. Every grant is applied when the pass returns.
  // Each chunk's steps are round.stage, round.respond, round.wait and
  // round.apply spans under `parent`, written by the calling thread.
  template <typename Respond>
  void RunPass(std::span<const int64_t> indices,
               const obs::TraceContext& parent, int64_t round_id,
               const Respond& respond);

  // Stages clients[index] for a hedge, outside the chunk, against the
  // ledger as it stands: the threads' work is finished first, and when
  // this chunk's grants hold one of the client's, they are applied and the
  // client is staged again. Returns whether they were, so that the slots
  // after the hedge must be staged again.
  bool StageHedge(int64_t index, StagedSlot* slot);

  // Whether `slot`'s client has a grant pending, so that its lookup is
  // stale.
  bool Pending(const StagedSlot& slot) const {
    const size_t row = slot.lookup.row;
    if (row != PrivacyMeter::kNoRow) {
      return Marked(marked_rows_, row) ||
             (!previous_.empty() && Marked(previous_rows_, row));
    }
    return marked_ids_.Contains(slot.client.id) ||
           previous_ids_.Contains(slot.client.id);
  }
  // Records that the meter granted `slot`'s charge. Its client must not
  // be Pending.
  void Granted(const StagedSlot& slot) {
    const size_t row = slot.lookup.row;
    grants_.push_back(
        Grant{slot.client.id, row, slot.lookup.value_in_row});
    if (!grants_.back().in_place()) ++inserts_;
    if (row != PrivacyMeter::kNoRow) {
      marked_rows_[row / 64] |= uint64_t{1} << (row % 64);
    } else {
      marked_ids_.Mark(slot.client.id);
    }
  }

 private:
  // A grant, as the apply step needs it: the client, and its lookup's row
  // and value_in_row.
  struct Grant {
    int64_t client_id = 0;
    size_t row = PrivacyMeter::kNoRow;
    bool value_in_row = true;

    // Whether it updates the client's row alone, which the threads may
    // do; any other grant may add a row, and runs alone.
    bool in_place() const {
      return row != PrivacyMeter::kNoRow && value_in_row;
    }
  };

  // Open-addressed set of the ids of clients without a row; a power of
  // two positions, at most half full, with an occupancy flag each.
  class IdMarks {
   public:
    void Mark(int64_t client_id);
    bool Contains(int64_t client_id) const {
      return count_ > 0 && used_[Position(client_id)] != 0;
    }
    void Clear();

   private:
    // The position of `client_id`, or the free one where it would go.
    size_t Position(int64_t client_id) const;

    std::vector<int64_t> ids_;
    std::vector<uint8_t> used_;
    size_t count_ = 0;
  };

  static bool Marked(const std::vector<uint64_t>& marks, size_t row) {
    return (marks[row / 64] >> (row % 64) & 1) != 0;
  }

  // Runs run(begin, end) over [0, items) in tasks of kTaskSlots, on as
  // many threads as the items allow, or inline.
  template <typename RunRange>
  void Split(size_t items, const RunRange& run);
  // The stage step, on the caller and the threads: fills chunk_ with
  // clients[indices[*]].
  void Stage(std::span<const int64_t> indices);
  // Stages slots [begin, end) of `out` from clients[indices[*]].
  void StageRange(std::span<const int64_t> indices, StagedSlot* out,
                  size_t begin, size_t end) const;
  // clients[index], staged.
  StagedSlot StageOne(int64_t index) const;
  // Hands the threads the previous chunk's grants to apply, unless they
  // are applied, and `ahead` to stage into next_, and returns at once.
  void StartAhead(std::span<const int64_t> ahead);
  // One task of that work: first the applies, then the stages, which
  // wait until every apply is done.
  void RunAheadTask(size_t task);
  // Waits for the threads' work (round.wait), running what no thread has
  // taken; a no-op when none is out.
  void FinishAhead();
  // Moves on to next_, once chunk_ has run to its end: this chunk's grants
  // become the previous chunk's, applied alone here if one may add a row
  // and by the threads while next_ responds if not. False, with every
  // grant applied, when an insert grew the client table, so that next_ is
  // stale.
  bool Advance();
  // The apply step, alone, once the threads' work is finished: adds every
  // pending grant to the ledger rows (the previous chunk's are in by
  // then) and forgets them.
  void Apply();
  // Unmarks every grant, applied by now, and forgets them.
  void Forget();
  // Adds this chunk's grants to the ledger rows, in place on the threads
  // for clients that have a row, then inline, in grant order, for the
  // rest (new rows, and counts kept in the meter's value table).
  void ApplyGrants();
  // Adds `grant` to its client's row (ApplyCharge).
  void ApplyOne(const Grant& grant) const;
  // Unmarks the rows of `grants` in `marks`.
  static void Unmark(const std::vector<Grant>& grants,
                     std::vector<uint64_t>* marks);
  // Gives the row marks a bit for every row of the meter's client table.
  void SizeMarks();
  // Parents a step's span under the pass's and labels it.
  void Describe(obs::Span* span, size_t slots) const;

  const std::vector<Client>& clients_;
  PrivacyMeter* const meter_;
  const int64_t value_id_;
  const double epsilon_;
  // The pass's span parent and round, for its steps' spans.
  obs::TraceContext parent_;
  int64_t round_id_ = -1;
  // The chunk being responded.
  std::vector<StagedSlot> chunk_;
  // The chunk the threads stage ahead, from the indices in ahead_ (empty
  // when none is staged); only a pipelined pass allocates it.
  std::vector<StagedSlot> next_;
  std::span<const int64_t> ahead_;
  // This chunk's grants, in grant order, and how many of them may add a
  // row; one bit per row of the meter's client table for their rows, and
  // the ids of their clients without one.
  std::vector<Grant> grants_;
  size_t inserts_ = 0;
  std::vector<uint64_t> marked_rows_;
  IdMarks marked_ids_;
  // The previous chunk's grants and marks, kept while this chunk, staged
  // before they were applied, runs; whether they were applied when that
  // chunk ended (else the threads apply them, all in place, now).
  std::vector<Grant> previous_;
  bool previous_applied_ = false;
  std::vector<uint64_t> previous_rows_;
  IdMarks previous_ids_;
  // The work out on the threads: its tasks, how many of them apply and
  // how many applies and stages are left, and, when traced, when it
  // started and when its applies and its stages ended (microseconds,
  // written by the task that ended them).
  std::function<void(size_t)> ahead_task_;
  size_t apply_tasks_ = 0;
  std::atomic<size_t> applies_left_{0};
  std::atomic<size_t> stages_left_{0};
  bool ahead_timed_ = false;
  int64_t ahead_start_us_ = 0;
  int64_t applied_us_ = 0;
  int64_t staged_us_ = 0;
  // Last, so that its threads are joined before anything they use goes.
  util::WorkerGroup workers_;
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
  parent_ = parent;
  round_id_ = round_id;
  // The threads stage from `indices`: if respond throws, they finish
  // before the frames that own it unwind. A task's own failure is dropped
  // there, since respond's exception is already on its way out.
  struct FinishOnUnwind {
    util::WorkerGroup& workers;
    ~FinishOnUnwind() {
      try {
        workers.Finish();
      } catch (...) {
      }
    }
  } finish_on_unwind{workers_};
  const bool pipelined = workers_.workers() > 1 &&
                         indices.size() >= 2 * kMinSlotsPerWorker;
  if (pipelined) {
    next_.reserve(kChunkSlots);
    SizeMarks();
  }
  const size_t max_chunk_slots =
      pipelined ? kChunkSlots : kInlineChunkSlots;
  // A chunk that ends early is followed by one of twice the slots that
  // ran, and chunks grow back from there.
  size_t chunk_slots = max_chunk_slots;
  // Whether chunk_ holds the slots from `begin` on.
  bool staged = false;
  for (size_t begin = 0; begin < indices.size();) {
    if (!staged) {
      obs::Span stage_span("round.stage", "federated");
      Stage(indices.subspan(begin,
                            std::min(chunk_slots, indices.size() - begin)));
      Describe(&stage_span, chunk_.size());
    }
    const size_t end = begin + chunk_.size();
    const size_t full_slots = std::min(max_chunk_slots, 2 * chunk_slots);
    StartAhead(pipelined ? indices.subspan(end,
                                           std::min(full_slots,
                                                    indices.size() - end))
                         : std::span<const int64_t>());
    obs::Span respond_span("round.respond", "federated");
    Describe(&respond_span, chunk_.size());
    size_t ran = 0;
    while (ran < chunk_.size() && !Pending(chunk_[ran])) {
      const bool staged_still = respond(chunk_[ran], begin + ran);
      ++ran;
      if (!staged_still) break;
    }
    respond_span.End();
    FinishAhead();
    const bool full = ran == chunk_.size();
    chunk_slots = full ? full_slots : std::max<size_t>(1, 2 * ran);
    begin += ran;
    if (full && !ahead_.empty()) {
      staged = Advance();
      continue;
    }
    obs::Span apply_span("round.apply", "federated");
    Describe(&apply_span, grants_.size());
    Apply();
    staged = false;
  }
}

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_ROUND_STAGES_H_
