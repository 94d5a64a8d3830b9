// Ablation: privacy architectures of Section 3.3 at matched epsilon —
// per-report local DP (randomized response) vs distributed DP on the bit
// histograms (sample-and-threshold; Bernoulli/binomial noise). Expected:
// the distributed routes add negligible error compared to LDP, matching
// the paper's improved O(1/(eps^2 n)) dependence and the deployment
// observation that enclave-side thresholding was essentially free.

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "data/census.h"
#include "dp/bernoulli_noise.h"
#include "dp/sample_threshold.h"
#include "stats/repetition.h"
#include "util/flags.h"
#include "util/table.h"

namespace bitpush {
namespace {

int Main(int argc, char** argv) {
  int64_t n = 50000;
  int64_t reps = 50;
  int64_t bits = 8;
  double delta = 1e-6;
  int64_t seed = 20240410;
  FlagSet flags;
  bench::BenchOutput output(&flags, "ablation_distributed_dp");
  flags.AddInt64("n", &n, "number of clients");
  flags.AddInt64("reps", &reps, "repetitions per point");
  flags.AddInt64("bits", &bits, "bit depth b");
  flags.AddDouble("delta", &delta, "DP delta for distributed mechanisms");
  flags.AddInt64("seed", &seed, "base seed");
  flags.Parse(argc, argv);

  output.Header("Ablation: local vs distributed DP architectures",
                     "census ages",
                     "n=" + std::to_string(n) + " bits=" +
                         std::to_string(bits) + " reps=" +
                         std::to_string(reps));

  Rng data_rng(static_cast<uint64_t>(seed));
  const Dataset data = CensusAges(n, data_rng);
  const FixedPointCodec codec =
      FixedPointCodec::Integer(static_cast<int>(bits));
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());
  BitPushingConfig base;
  base.probabilities = GeometricProbabilities(static_cast<int>(bits), 0.5);

  Table table({"epsilon", "architecture", "nrmse", "stderr"});
  for (const double epsilon : std::vector<double>{0.5, 1.0, 2.0}) {
    // Local DP: randomized response on every report.
    {
      BitPushingConfig config = base;
      config.epsilon = epsilon;
      const ErrorStats stats = RunRepetitions(
          reps, static_cast<uint64_t>(seed) + 1, data.truth().mean,
          [&](Rng& rng) {
            return codec.Decode(RunBasicBitPushing(codewords, config, rng)
                                    .estimate_codeword);
          });
      table.NewRow()
          .AddDouble(epsilon, 3)
          .AddCell("local_rr")
          .AddDouble(stats.nrmse)
          .AddDouble(stats.stderr_nrmse, 3);
    }
    // Distributed: sample-and-threshold on the bit histograms.
    {
      const auto st = SampleThresholdForBudget(epsilon, delta, 0.5);
      const ErrorStats stats = RunRepetitions(
          reps, static_cast<uint64_t>(seed) + 1, data.truth().mean,
          [&](Rng& rng) {
            const BitPushingResult raw =
                RunBasicBitPushing(codewords, base, rng);
            const std::vector<double> ones = UnbiasSampledCounts(
                SampleAndThreshold(raw.histogram.ones, st, rng),
                st.sampling_rate);
            const std::vector<double> totals = UnbiasSampledCounts(
                SampleAndThreshold(raw.histogram.totals, st, rng),
                st.sampling_rate);
            std::vector<double> means(ones.size(), 0.0);
            for (size_t j = 0; j < means.size(); ++j) {
              if (totals[j] > 0) means[j] = ones[j] / totals[j];
            }
            return codec.Decode(RecombineBitMeans(means));
          });
      table.NewRow()
          .AddDouble(epsilon, 3)
          .AddCell("sample_threshold")
          .AddDouble(stats.nrmse)
          .AddDouble(stats.stderr_nrmse, 3);
    }
    // Distributed: binomial noise on the one-counts.
    {
      const int64_t noise_bits = NoiseBitsForBudget(epsilon, delta);
      const ErrorStats stats = RunRepetitions(
          reps, static_cast<uint64_t>(seed) + 1, data.truth().mean,
          [&](Rng& rng) {
            const BitPushingResult raw =
                RunBasicBitPushing(codewords, base, rng);
            const std::vector<double> noisy_ones = AddBinomialNoise(
                raw.histogram.ones, noise_bits, rng);
            std::vector<double> means(noisy_ones.size(), 0.0);
            for (size_t j = 0; j < means.size(); ++j) {
              const int64_t total = raw.histogram.totals[j];
              if (total > 0) {
                means[j] = noisy_ones[j] / static_cast<double>(total);
              }
            }
            return codec.Decode(RecombineBitMeans(means));
          });
      table.NewRow()
          .AddDouble(epsilon, 3)
          .AddCell("binomial_noise")
          .AddDouble(stats.nrmse)
          .AddDouble(stats.stderr_nrmse, 3);
    }
  }
  output.AddTable(table);
  return output.Finish();
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) { return bitpush::Main(argc, argv); }
