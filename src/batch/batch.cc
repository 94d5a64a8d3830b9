#include "batch/batch.h"

#include <cstdint>
#include <vector>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace bitpush {

ReportBatch MakeEmptyBatch(int bits, int64_t count) {
  BITPUSH_CHECK_GE(bits, 1);
  BITPUSH_CHECK_GE(count, 1);
  ReportBatch batch;
  batch.bits = bits;
  batch.count = count;
  batch.stride = kernels::WordsForBits(count);
  batch.planes.assign(static_cast<size_t>(bits) *
                          static_cast<size_t>(batch.stride),
                      0);
  batch.selection.assign(static_cast<size_t>(bits) *
                             static_cast<size_t>(batch.stride),
                         0);
  return batch;
}

ReportBatch BuildReportBatch(const std::vector<uint64_t>& codewords,
                             const std::vector<int>& assignment, int bits) {
  BITPUSH_CHECK_EQ(codewords.size(), assignment.size());
  ReportBatch batch =
      MakeEmptyBatch(bits, static_cast<int64_t>(codewords.size()));
  for (const int j : assignment) {
    BITPUSH_CHECK(j >= 0 && j < bits) << "assignment out of range: " << j;
  }
  kernels::ActiveKernel().build_planes(codewords.data(), assignment.data(),
                                       batch.count, bits, batch.stride,
                                       batch.planes.data(),
                                       batch.selection.data());
  return batch;
}

ReportBatch ReportBatchFromBitReports(const std::vector<BitReport>& reports,
                                      int bits) {
  ReportBatch batch =
      MakeEmptyBatch(bits, static_cast<int64_t>(reports.size()));
  for (int64_t i = 0; i < batch.count; ++i) {
    const BitReport& report = reports[static_cast<size_t>(i)];
    BITPUSH_CHECK(report.bit_index >= 0 && report.bit_index < bits)
        << "bit_index out of range: " << report.bit_index;
    BITPUSH_CHECK(report.bit == 0 || report.bit == 1);
    const int64_t word = i / 64;
    const uint64_t mask = uint64_t{1} << (i % 64);
    batch.selection_plane(report.bit_index)[word] |= mask;
    if (report.bit != 0) batch.plane(report.bit_index)[word] |= mask;
  }
  return batch;
}

void PerturbBatch(ReportBatch* batch, const RandomizedResponse& rr,
                  Rng& rng) {
  BITPUSH_CHECK(batch != nullptr);
  if (!rr.enabled()) return;
  // One keep/flip draw per slot, in slot order — the same draws, from the
  // same stream, that the per-report rr.Apply path consumed. This keeps
  // every fixed-seed tally bit-identical to the pre-columnar
  // implementation (and independent of the dispatched kernel, since the
  // draws never depend on the data); only the application is columnar: the
  // flip mask is XOR-ed into each plane gated by that plane's selection,
  // so a slot's flip lands exactly on its one assigned bit. Callers that
  // do not need stream compatibility can draw bulk masks instead via
  // RandomizedResponse::ApplyToWords (kernels::FillBernoulliWords).
  std::vector<uint64_t> flips(static_cast<size_t>(batch->stride), 0);
  for (int64_t i = 0; i < batch->count; ++i) {
    if (rr.DrawFlip(rng)) {
      flips[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
    }
  }
  const kernels::KernelOps& ops = kernels::ActiveKernel();
  for (int j = 0; j < batch->bits; ++j) {
    ops.xor_masked_words(batch->plane(j), flips.data(),
                         batch->selection_plane(j), batch->stride);
  }
}

BitHistogram AggregateBatch(const ReportBatch& batch) {
  // Volatile, not stable: aggregation is skipped when a crash-recovered
  // round is restored from the journal, so this counter legitimately
  // differs between a live run and its recovered twin and must stay out
  // of the deterministic snapshot.
  static obs::Counter* batch_reports = obs::Registry::Default().GetCounter(
      "bitpush_batch_reports_total",
      "Reports tallied through the columnar batch path.",
      obs::Determinism::kVolatile);
  const kernels::KernelOps& ops = kernels::ActiveKernel();
  BitHistogram tally(batch.bits);
  int64_t reports = 0;
  for (int j = 0; j < batch.bits; ++j) {
    const int64_t total =
        ops.popcount_words(batch.selection_plane(j), batch.stride);
    tally.totals[static_cast<size_t>(j)] = total;
    tally.ones[static_cast<size_t>(j)] = ops.popcount_and_words(
        batch.plane(j), batch.selection_plane(j), batch.stride);
    reports += total;
  }
  batch_reports->Add(reports);
  return tally;
}

}  // namespace bitpush
