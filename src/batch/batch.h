// Columnar report batches: the structure-of-arrays data plane.
//
// The AoS path moves one 16-byte BitReport per client through the
// encode/perturb/tally loops; at a million clients per round that is the
// bottleneck ROADMAP item 1 names. A ReportBatch instead stores the round
// columnarly:
//
//   planes[j]    — packed bit vector, bit i = the report bit of client i
//                  *if* client i was assigned bit index j (zero otherwise)
//   selection[j] — packed bit vector, bit i = "client i is assigned j"
//
// Both are `bits` rows of `stride` contiguous uint64_t words, client i at
// bit i%64 of word i/64 (the packed layout of src/kernels/kernels.h).
// Tallying becomes popcount over contiguous words, into the one tally
// type, BitHistogram (core/bit_pushing.h), that the round, the journal,
// the snapshot, the shard frame and the merge all carry:
//
//   totals[j] = popcount(selection[j]),  ones[j] = popcount(planes[j] &
//   selection[j])
//
// and randomized response becomes an XOR with a bulk Bernoulli mask.
//
// Plane bits outside the selection are inert: BuildReportBatch scatters
// the *full* bit-slice of every codeword (the cheapest thing for the
// kernel to produce) and relies on every consumer gating by selection —
// tallies popcount plane & selection, perturbation masks are ANDed with
// the selection, and conversion reads only the selected plane.
// ReportBatchFromBitReports, whose inputs carry just one bit per report,
// produces gated planes (planes[j] & ~selection[j] == 0).
//
// Determinism: PerturbBatch draws one keep/flip decision per slot, in slot
// order, from the caller's rng — exactly the stream the per-report
// rr.Apply path consumed — so the result is bit-identical to the
// pre-columnar implementation and a function of (batch, rr, rng) only,
// never of the dispatched kernel. See docs/KERNELS.md for the full
// contract.

#ifndef BITPUSH_BATCH_BATCH_H_
#define BITPUSH_BATCH_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bit_pushing.h"
#include "federated/report.h"
#include "ldp/randomized_response.h"
#include "rng/rng.h"

namespace bitpush {

// One collection round in structure-of-arrays form.
struct ReportBatch {
  int bits = 0;        // bit planes (codeword width)
  int64_t count = 0;   // clients in the batch
  int64_t stride = 0;  // words per plane, kernels::WordsForBits(count)
  std::vector<uint64_t> planes;     // bits * stride words
  std::vector<uint64_t> selection;  // bits * stride words

  uint64_t* plane(int j) { return planes.data() + j * stride; }
  const uint64_t* plane(int j) const { return planes.data() + j * stride; }
  uint64_t* selection_plane(int j) { return selection.data() + j * stride; }
  const uint64_t* selection_plane(int j) const {
    return selection.data() + j * stride;
  }
};

// The tally type's former name, still spelled by perfbench/.
using TallyBatch = BitHistogram;

// An empty batch of `count` (>= 1) slots: every plane and selection word
// zero.
ReportBatch MakeEmptyBatch(int bits, int64_t count);

// Puts one report into `slot` of `batch`: selects it on plane `bit_index`
// (in [0, bits)) and sets its plane bit to `bit` (0 or 1). The slot must
// be empty.
inline void PutReport(ReportBatch* batch, int64_t slot, int bit_index,
                      int bit) {
  const int64_t word = slot >> 6;
  const uint64_t mask = uint64_t{1} << (slot & 63);
  batch->selection_plane(bit_index)[word] |= mask;
  if (bit != 0) batch->plane(bit_index)[word] |= mask;
}

// Builds a batch from encoded codewords and a per-client bit assignment
// (entries in [0, bits)), e.g. from rng/qmc.h. Plane bits carry the
// *unperturbed* assigned bit of each codeword.
ReportBatch BuildReportBatch(const std::vector<uint64_t>& codewords,
                             const std::vector<int>& assignment, int bits);

// Converter from the AoS path. It accepts reports in any order; slot i of
// the batch is reports[i] (client ids are not retained — tallies never
// depend on them).
ReportBatch ReportBatchFromBitReports(const std::vector<BitReport>& reports,
                                      int bits);

// Applies randomized response to every *assigned* bit of the batch: one
// flip mask is drawn slot-by-slot via rr.DrawFlip (consuming exactly the
// randomness the per-report rr.Apply path consumed, in the same order)
// and XOR-ed into each plane gated by that plane's selection. No-op when
// rr is disabled (consumes no randomness, matching the scalar path's
// disabled Apply).
void PerturbBatch(ReportBatch* batch, const RandomizedResponse& rr,
                  Rng& rng);

// Per-plane popcount reduction into a histogram of the batch's width:
// totals[j] counts plane j's selection and ones[j] its selected set bits,
// so 0 <= ones[j] <= totals[j] holds by construction. Charges the batch's
// report count to the volatile obs counter `bitpush_batch_reports_total`
// (volatile because restored rounds skip aggregation, so live and
// crash-recovered runs legitimately disagree on it).
BitHistogram AggregateBatch(const ReportBatch& batch);

}  // namespace bitpush

#endif  // BITPUSH_BATCH_BATCH_H_
