// The SIMD kernel layer's determinism contract (src/kernels/,
// docs/KERNELS.md): every kernel computes the same function, encode
// reproduces FixedPointCodec::Encode bit for bit, and all randomness comes
// from shared scalar code — so forcing the scalar kernel must never change
// a single bit of any result. These tests pin each op against a direct
// reference implementation and against the scalar kernel, then check the
// batch pipeline (build -> perturb -> aggregate) against the per-report
// path it replaced.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "batch/batch.h"
#include "core/bit_pushing.h"
#include "core/fixed_point.h"
#include "core/histogram_estimation.h"
#include "kernels/kernels.h"
#include "ldp/randomized_response.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

using ::bitpush::kernels::ActiveKernel;
using ::bitpush::kernels::EncodeParams;
using ::bitpush::kernels::FillBernoulliWords;
using ::bitpush::kernels::KernelOps;
using ::bitpush::kernels::ScalarKernel;
using ::bitpush::kernels::ScopedForceScalar;
using ::bitpush::kernels::SimdActive;
using ::bitpush::kernels::TailMask;
using ::bitpush::kernels::WordsForBits;

// The bit of `slot` in a plane of words.
int SlotBit(const uint64_t* plane, int64_t slot) {
  return static_cast<int>((plane[slot / 64] >> (slot % 64)) & 1u);
}

std::vector<uint64_t> RandomWords(int64_t n, Rng& rng) {
  std::vector<uint64_t> words(static_cast<size_t>(n));
  for (uint64_t& w : words) w = rng.NextUint64();
  return words;
}

// ---------------------------------------------------------------------------
// Word ops: scalar vs dispatched, against direct references.

TEST(KernelTest, WordOpsMatchScalarKernelAndReference) {
  Rng rng(101);
  const KernelOps& scalar = ScalarKernel();
  const KernelOps& active = ActiveKernel();
  // Sizes straddling every vector width and tail shape.
  for (const int64_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64,
                          65, 100, 256, 1000}) {
    const std::vector<uint64_t> a = RandomWords(n, rng);
    const std::vector<uint64_t> b = RandomWords(n, rng);
    const std::vector<uint64_t> gate = RandomWords(n, rng);

    // popcount / popcount_and / reduce_add against direct loops.
    int64_t want_pop = 0;
    int64_t want_pop_and = 0;
    uint64_t want_sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      want_pop += std::popcount(a[static_cast<size_t>(i)]);
      want_pop_and += std::popcount(a[static_cast<size_t>(i)] &
                                    b[static_cast<size_t>(i)]);
      want_sum += a[static_cast<size_t>(i)];
    }
    for (const KernelOps* ops : {&scalar, &active}) {
      EXPECT_EQ(ops->popcount_words(a.data(), n), want_pop) << ops->name;
      EXPECT_EQ(ops->popcount_and_words(a.data(), b.data(), n), want_pop_and)
          << ops->name;
      EXPECT_EQ(ops->reduce_add_words(a.data(), n), want_sum) << ops->name;
    }

    // xor / xor_masked / add: apply with each kernel, expect equal vectors.
    std::vector<uint64_t> via_scalar = a;
    std::vector<uint64_t> via_active = a;
    scalar.xor_words(via_scalar.data(), b.data(), n);
    active.xor_words(via_active.data(), b.data(), n);
    EXPECT_EQ(via_scalar, via_active);

    via_scalar = a;
    via_active = a;
    scalar.xor_masked_words(via_scalar.data(), b.data(), gate.data(), n);
    active.xor_masked_words(via_active.data(), b.data(), gate.data(), n);
    EXPECT_EQ(via_scalar, via_active);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(via_scalar[static_cast<size_t>(i)],
                a[static_cast<size_t>(i)] ^
                    (b[static_cast<size_t>(i)] & gate[static_cast<size_t>(i)]));
    }

    via_scalar = a;
    via_active = a;
    scalar.add_words(via_scalar.data(), b.data(), n);
    active.add_words(via_active.data(), b.data(), n);
    EXPECT_EQ(via_scalar, via_active);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(via_scalar[static_cast<size_t>(i)],
                a[static_cast<size_t>(i)] + b[static_cast<size_t>(i)]);
    }

    // crc32_extend over the words' bytes, from a running CRC, at every
    // byte offset into the first word: lengths on both sides of the
    // 64-byte folding threshold and every tail shape.
    const auto* a_bytes = reinterpret_cast<const uint8_t*>(a.data());
    const size_t a_size = static_cast<size_t>(n) * sizeof(uint64_t);
    const uint32_t seed_crc =
        gate.empty() ? 0u : static_cast<uint32_t>(gate[0]);
    for (size_t skip = 0; skip <= std::min<size_t>(a_size, 8); ++skip) {
      EXPECT_EQ(active.crc32_extend(seed_crc, a_bytes + skip, a_size - skip),
                scalar.crc32_extend(seed_crc, a_bytes + skip, a_size - skip))
          << active.name << " n=" << n << " skip=" << skip;
    }
  }
}

// ---------------------------------------------------------------------------
// Encode: the hardest op to keep bit-identical (llround semantics).

TEST(KernelTest, EncodeMatchesCodecOnRandomAndBoundaryValues) {
  Rng rng(202);
  for (const int bits : {1, 4, 10, 16, 32, 52}) {
    const FixedPointCodec codec(bits, -3.25, 7.5);
    // Boundary and tie-prone values: the clamp edges, values outside the
    // domain, infinities, and points that land exactly on .5 codeword
    // boundaries (llround ties round away from zero — the case a naive
    // SIMD cvtpd path gets wrong).
    std::vector<double> values = {
        -3.25, 7.5, -100.0, 100.0, 0.0, -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min()};
    const double step = codec.resolution();
    for (int k = 0; k < 64; ++k) {
      values.push_back(codec.low() + (static_cast<double>(k) + 0.5) * step);
      values.push_back(codec.low() + static_cast<double>(k) * step);
    }
    for (int i = 0; i < 4096; ++i) {
      values.push_back(codec.low() +
                       (codec.high() - codec.low() + 2.0) *
                           (rng.NextDouble() - 0.1));
    }

    // EncodeAll routes through the dispatched kernel; Encode is the scalar
    // reference. Compare both, and the forced-scalar EncodeAll too.
    const std::vector<uint64_t> dispatched = codec.EncodeAll(values);
    std::vector<uint64_t> forced;
    {
      ScopedForceScalar force_scalar;
      forced = codec.EncodeAll(values);
    }
    ASSERT_EQ(dispatched.size(), values.size());
    EXPECT_EQ(dispatched, forced) << "bits=" << bits;
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(dispatched[i], codec.Encode(values[i]))
          << "bits=" << bits << " value=" << values[i];
    }
    // The scalar Encode emulates llround inline: it must give llround's
    // codeword on the same sweep, and on NaNs of either sign, which no
    // kernel sees.
    values.push_back(std::numeric_limits<double>::quiet_NaN());
    values.push_back(-std::numeric_limits<double>::quiet_NaN());
    // The codec's scale, as its constructor computes it.
    const double scale = static_cast<double>(codec.max_codeword()) /
                         (codec.high() - codec.low());
    for (const double value : values) {
      const double scaled =
          (std::clamp(value, codec.low(), codec.high()) - codec.low()) *
          scale;
      const uint64_t expected = std::min(
          static_cast<uint64_t>(std::llround(scaled)), codec.max_codeword());
      EXPECT_EQ(codec.Encode(value), expected)
          << "bits=" << bits << " value=" << value;
    }
  }
}

// ---------------------------------------------------------------------------
// build_planes: against the bit-at-a-time specification.

TEST(KernelTest, BuildPlanesMatchesSpecification) {
  Rng rng(303);
  for (const int64_t n : {1, 63, 64, 65, 200, 517}) {
    const int bits = 9;
    const int64_t stride = WordsForBits(n);
    std::vector<uint64_t> codewords(static_cast<size_t>(n));
    std::vector<int> assignment(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      codewords[static_cast<size_t>(i)] = rng.NextBelow(uint64_t{1} << bits);
      assignment[static_cast<size_t>(i)] =
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(bits)));
    }
    for (const KernelOps* ops : {&ScalarKernel(), &ActiveKernel()}) {
      std::vector<uint64_t> planes(static_cast<size_t>(bits * stride), 0);
      std::vector<uint64_t> selection(static_cast<size_t>(bits * stride), 0);
      ops->build_planes(codewords.data(), assignment.data(), n, bits, stride,
                        planes.data(), selection.data());
      for (int64_t i = 0; i < n; ++i) {
        const size_t word = static_cast<size_t>(i / 64);
        const uint64_t mask = uint64_t{1} << (i % 64);
        for (int j = 0; j < bits; ++j) {
          const uint64_t plane_bit =
              planes[static_cast<size_t>(j) * stride + word] & mask;
          const uint64_t sel_bit =
              selection[static_cast<size_t>(j) * stride + word] & mask;
          const bool assigned = assignment[static_cast<size_t>(i)] == j;
          EXPECT_EQ(sel_bit != 0, assigned)
              << ops->name << " client " << i << " plane " << j;
          // Planes carry the full bit-slice; consumers gate by selection.
          const bool want_bit =
              FixedPointCodec::Bit(codewords[static_cast<size_t>(i)], j) == 1;
          EXPECT_EQ(plane_bit != 0, want_bit)
              << ops->name << " client " << i << " plane " << j;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FillBernoulliWords: determinism, edge probabilities, tails, statistics.

TEST(KernelTest, FillBernoulliWordsIsDeterministicAndKernelIndependent) {
  const int64_t n_bits = 1000;
  const int64_t words = WordsForBits(n_bits);
  std::vector<uint64_t> a(static_cast<size_t>(words));
  std::vector<uint64_t> b(static_cast<size_t>(words));
  Rng rng_a(7);
  FillBernoulliWords(0.3, n_bits, rng_a, a.data());
  {
    // The mask is shared scalar code: forcing the scalar kernel must not
    // change a single drawn bit.
    ScopedForceScalar force_scalar;
    Rng rng_b(7);
    FillBernoulliWords(0.3, n_bits, rng_b, b.data());
  }
  EXPECT_EQ(a, b);
}

TEST(KernelTest, FillBernoulliWordsHandlesEdgeProbabilitiesAndTail) {
  for (const int64_t n_bits : {1, 63, 64, 65, 128, 1000}) {
    const int64_t words = WordsForBits(n_bits);
    std::vector<uint64_t> out(static_cast<size_t>(words), 0xDEADBEEF);
    Rng rng(1);
    const uint64_t before = Rng(1).NextUint64();
    FillBernoulliWords(0.0, n_bits, rng, out.data());
    for (const uint64_t w : out) EXPECT_EQ(w, 0u);
    // p = 0 draws nothing: the stream is untouched.
    EXPECT_EQ(rng.NextUint64(), before);

    FillBernoulliWords(1.0, n_bits, rng, out.data());
    for (int64_t i = 0; i + 1 < words; ++i) {
      EXPECT_EQ(out[static_cast<size_t>(i)], ~uint64_t{0});
    }
    // Bits past n_bits stay zero so popcount tallies cannot overcount.
    EXPECT_EQ(out[static_cast<size_t>(words - 1)], TailMask(n_bits));
  }
}

TEST(KernelTest, FillBernoulliWordsMatchesItsProbability) {
  const int64_t n_bits = 1 << 18;
  const std::vector<double> probabilities = {0.5, 0.25, 0.2689414213699951,
                                             0.9, 1.0 / 3.0};
  for (const double p : probabilities) {
    std::vector<uint64_t> out(static_cast<size_t>(WordsForBits(n_bits)));
    Rng rng(42);
    FillBernoulliWords(p, n_bits, rng, out.data());
    const int64_t ones =
        ActiveKernel().popcount_words(out.data(), WordsForBits(n_bits));
    const double observed =
        static_cast<double>(ones) / static_cast<double>(n_bits);
    // 6 sigma for a Binomial(2^18, p) fraction.
    const double sigma = std::sqrt(p * (1.0 - p) /
                                   static_cast<double>(n_bits));
    EXPECT_NEAR(observed, p, 6.0 * sigma + 1e-9) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Dispatch controls.

TEST(KernelTest, ScopedForceScalarForcesTheScalarKernel) {
  {
    ScopedForceScalar outer;
    EXPECT_STREQ(ActiveKernel().name, "scalar");
    EXPECT_FALSE(SimdActive());
    {
      ScopedForceScalar inner;  // nesting is counted, not flag-toggled
      EXPECT_STREQ(ActiveKernel().name, "scalar");
    }
    EXPECT_STREQ(ActiveKernel().name, "scalar");
  }
  // Outside the scopes the dispatched kernel (whatever it is) is back.
  EXPECT_EQ(SimdActive(), &ActiveKernel() != &ScalarKernel());
}

// ---------------------------------------------------------------------------
// Batch pipeline vs the per-report path.

TEST(KernelBatchTest, ConvertersRoundTripAndKeepPlanesGated) {
  Rng rng(404);
  const int bits = 6;
  std::vector<BitReport> reports(350);
  for (size_t i = 0; i < reports.size(); ++i) {
    reports[i].client_id = static_cast<int64_t>(rng.NextBelow(1000000));
    reports[i].bit_index = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(bits)));
    reports[i].bit = rng.NextBit();
  }
  const ReportBatch batch = ReportBatchFromBitReports(reports, bits);
  // Plane bits may only appear where the selection gate is set.
  for (int j = 0; j < bits; ++j) {
    for (int64_t w = 0; w < batch.stride; ++w) {
      EXPECT_EQ(batch.plane(j)[w] & ~batch.selection_plane(j)[w], 0u);
    }
  }
  // Slot i is selected in exactly report i's plane and carries its bit.
  ASSERT_EQ(batch.count, static_cast<int64_t>(reports.size()));
  for (size_t i = 0; i < reports.size(); ++i) {
    const int64_t slot = static_cast<int64_t>(i);
    for (int j = 0; j < bits; ++j) {
      EXPECT_EQ(SlotBit(batch.selection_plane(j), slot),
                j == reports[i].bit_index ? 1 : 0)
          << i;
    }
    EXPECT_EQ(SlotBit(batch.plane(reports[i].bit_index), slot),
              reports[i].bit)
        << i;
  }
}

TEST(KernelBatchTest, AggregateBatchMatchesPerReportHistogram) {
  Rng rng(505);
  const int bits = 7;
  for (const int64_t n : {1, 64, 65, 500}) {
    std::vector<BitReport> reports(static_cast<size_t>(n));
    BitHistogram want(bits);
    for (BitReport& report : reports) {
      report.client_id = 0;
      report.bit_index =
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(bits)));
      report.bit = rng.NextBit();
      want.Add(report.bit_index, report.bit);
    }
    EXPECT_EQ(AggregateBatch(ReportBatchFromBitReports(reports, bits)), want)
        << n;
  }
}

TEST(KernelBatchTest, PerturbBatchReproducesThePerReportStream) {
  // The stream-compatibility contract (src/batch/batch.h): PerturbBatch
  // consumes exactly the draws rr.Apply consumed, in slot order, so a
  // fixed seed yields the same perturbed reports through either path.
  Rng data_rng(606);
  const int bits = 8;
  const int64_t n = 333;
  std::vector<uint64_t> codewords(static_cast<size_t>(n));
  std::vector<int> assignment(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    codewords[static_cast<size_t>(i)] =
        data_rng.NextBelow(uint64_t{1} << bits);
    assignment[static_cast<size_t>(i)] =
        static_cast<int>(data_rng.NextBelow(static_cast<uint64_t>(bits)));
  }
  const RandomizedResponse rr = RandomizedResponse::FromEpsilon(0.8);

  ReportBatch batch = BuildReportBatch(codewords, assignment, bits);
  Rng batch_rng(77);
  PerturbBatch(&batch, rr, batch_rng);

  Rng report_rng(77);
  for (int64_t i = 0; i < n; ++i) {
    const int bit_index = assignment[static_cast<size_t>(i)];
    const int want = rr.Apply(
        FixedPointCodec::Bit(codewords[static_cast<size_t>(i)], bit_index),
        report_rng);
    EXPECT_EQ(SlotBit(batch.plane(bit_index), i), want) << "slot " << i;
  }
  // Both paths left their streams at the same point.
  EXPECT_EQ(batch_rng.NextUint64(), report_rng.NextUint64());
}

TEST(KernelBatchTest, DisabledPerturbationIsANoOpAndConsumesNothing) {
  std::vector<uint64_t> codewords = {3, 1, 2, 3, 0, 1};
  std::vector<int> assignment = {0, 1, 0, 1, 0, 1};
  ReportBatch batch = BuildReportBatch(codewords, assignment, 2);
  const std::vector<uint64_t> planes_before = batch.planes;
  Rng rng(9);
  PerturbBatch(&batch, RandomizedResponse::Disabled(), rng);
  EXPECT_EQ(batch.planes, planes_before);
  EXPECT_EQ(rng.NextUint64(), Rng(9).NextUint64());
}

// ---------------------------------------------------------------------------
// End-to-end: whole protocols, forced scalar vs dispatched.

TEST(KernelBatchTest, BasicBitPushingIsKernelIndependent) {
  Rng data_rng(707);
  std::vector<uint64_t> codewords(2000);
  for (uint64_t& cw : codewords) cw = data_rng.NextBelow(1u << 10);
  BitPushingConfig config;
  config.probabilities.assign(10, 0.1);
  config.epsilon = 1.0;  // exercise the perturbation masks too
  config.bits_per_client = 2;

  Rng dispatched_rng(11);
  const BitPushingResult dispatched =
      RunBasicBitPushing(codewords, config, dispatched_rng);
  ScopedForceScalar force_scalar;
  Rng scalar_rng(11);
  const BitPushingResult scalar =
      RunBasicBitPushing(codewords, config, scalar_rng);

  EXPECT_EQ(dispatched.histogram, scalar.histogram);
  EXPECT_EQ(dispatched.estimate_codeword, scalar.estimate_codeword);
  EXPECT_EQ(dispatched.bit_means, scalar.bit_means);
}

TEST(KernelBatchTest, HistogramEstimationIsKernelIndependent) {
  Rng data_rng(808);
  std::vector<double> values(3000);
  for (double& v : values) v = 100.0 * data_rng.NextDouble();
  HistogramConfig config;
  config.edges = UniformEdges(0.0, 100.0, 8);
  config.epsilon = 1.2;

  Rng dispatched_rng(13);
  const HistogramResult dispatched =
      EstimateHistogram(values, config, dispatched_rng);
  ScopedForceScalar force_scalar;
  Rng scalar_rng(13);
  const HistogramResult scalar = EstimateHistogram(values, config, scalar_rng);

  EXPECT_EQ(dispatched.fractions, scalar.fractions);
  EXPECT_EQ(dispatched.counts, scalar.counts);
}

}  // namespace
}  // namespace bitpush
