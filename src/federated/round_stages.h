// The steps of a collection pass (AggregationServer::RunRound). A pass
// runs over chunks of its batch, each in three steps:
//
//   stage    copies each slot's client fields and its ledger lookup into
//            a chunk buffer: random reads that draw no randomness;
//   respond  the slot state machine, on the calling thread, in slot order:
//            every draw, fault roll, retry, hedge, charge decision and
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
// Before its first stage, a round registers its value id and every client
// it may contact with the meter (PrivacyMeter::Register), unless the
// meter's registration is closed: a meter bound to the round's population
// (MeasurementCampaign::BindPopulations) holds a row for each already.
// From then on no charge adds or moves a row, so every grant, the first
// charges of a client included, is applied in place on the threads.
//
// A charge must be decided against the ledger as it will read once every
// earlier grant is applied, so a staged lookup is good only while its row
// has no grant pending: none earlier in its own chunk, and none in the
// chunk before, which was staged before that chunk's grants were applied.
// The rows of those grants are marked. When a marked row comes up (a
// cohort that repeats an index, a population that repeats an id), the
// chunk ends before that slot: every pending grant is applied and the next
// chunk is staged from there. A hedge, whose client is looked up when it
// is issued, first finishes the threads' work; if this chunk's grants
// hold the hedge's row, they are applied first and the chunk ends after
// that slot. Every meter cap therefore holds for any input.

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
  // The client's ledger lookup when the slot was staged; its row is
  // kNoRow without a meter.
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
  // `meter`, which may be null (no lookups, no charges). Registers the
  // value id; the caller registers the clients first.
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

  // Whether `slot`'s row has a grant pending, so that its lookup is
  // stale.
  bool Pending(const StagedSlot& slot) const {
    const size_t row = slot.lookup.row;
    return row != PrivacyMeter::kNoRow &&
           (Marked(marked_rows_, row) ||
            (!previous_.empty() && Marked(previous_rows_, row)));
  }
  // Records that the meter granted `slot`'s charge. Its row must not be
  // Pending.
  void Granted(const StagedSlot& slot) {
    const size_t row = slot.lookup.row;
    grants_.push_back(row);
    marked_rows_[row / 64] |= uint64_t{1} << (row % 64);
  }

 private:
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
  // The ledger lookup of `client_id`, which must be registered.
  PrivacyMeter::ChargeLookup Look(int64_t client_id) const;
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
  // become the previous chunk's, which the threads apply while next_
  // responds.
  void Advance();
  // The apply step, once the threads' work is finished: adds this chunk's
  // grants to their rows, on the threads (the previous chunk's are in by
  // then), and forgets both chunks' grants.
  void Apply();
  // Adds the grant to `row` (ApplyCharge).
  void ApplyOne(size_t row) const {
    meter_->ApplyCharge(row, value_, epsilon_);
  }
  // Unmarks `rows` in `marks`.
  static void Unmark(const std::vector<size_t>& rows,
                     std::vector<uint64_t>* marks);
  // Parents a step's span under the pass's and labels it.
  void Describe(obs::Span* span, size_t slots) const;

  const std::vector<Client>& clients_;
  PrivacyMeter* const meter_;
  // The charged value's index in the meter (RegisterValue).
  const size_t value_;
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
  // This chunk's grants, as rows in grant order, and one bit per row of
  // the meter marking them.
  std::vector<size_t> grants_;
  std::vector<uint64_t> marked_rows_;
  // The previous chunk's grants and marks, kept while this chunk, staged
  // before the threads applied them, runs.
  std::vector<size_t> previous_;
  std::vector<uint64_t> previous_rows_;
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
  if (pipelined) next_.reserve(kChunkSlots);
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
      Advance();
      staged = true;
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
