// Ablation: central (QMC) vs local randomness for the bit assignment
// (Section 3.1). The server-side allocation makes per-bit report counts
// deterministic, removing one variance source; the binary prints both the
// variance of the per-bit counts and the resulting estimator error.

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "data/census.h"
#include "stats/repetition.h"
#include "stats/welford.h"
#include "util/flags.h"
#include "util/table.h"

namespace bitpush {
namespace {

int Main(int argc, char** argv) {
  int64_t n = 10000;
  int64_t reps = 200;
  int64_t bits = 8;
  int64_t seed = 20240412;
  FlagSet flags;
  bench::BenchOutput output(&flags, "ablation_randomness");
  flags.AddInt64("n", &n, "number of clients");
  flags.AddInt64("reps", &reps, "repetitions per point");
  flags.AddInt64("bits", &bits, "bit depth b");
  flags.AddInt64("seed", &seed, "base seed");
  flags.Parse(argc, argv);

  output.Header("Ablation: central (QMC) vs local randomness",
                     "census ages",
                     "n=" + std::to_string(n) + " bits=" +
                         std::to_string(bits) + " reps=" +
                         std::to_string(reps));

  Rng data_rng(static_cast<uint64_t>(seed));
  const Dataset data = CensusAges(n, data_rng);
  const FixedPointCodec codec =
      FixedPointCodec::Integer(static_cast<int>(bits));
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());

  Table table({"randomness", "gamma", "nrmse", "top_bit_count_stddev"});
  for (const double gamma : std::vector<double>{0.5, 1.0}) {
    for (const bool central : {true, false}) {
      BitPushingConfig config;
      config.probabilities =
          GeometricProbabilities(static_cast<int>(bits), gamma);
      config.central_randomness = central;

      Welford top_counts;
      Rng rng(static_cast<uint64_t>(seed) + 1);
      std::vector<double> estimates;
      for (int64_t rep = 0; rep < reps; ++rep) {
        const BitPushingResult result =
            RunBasicBitPushing(codewords, config, rng);
        estimates.push_back(codec.Decode(result.estimate_codeword));
        top_counts.Add(static_cast<double>(
            result.histogram.totals[static_cast<size_t>(bits) - 1]));
      }
      const ErrorStats stats =
          ComputeErrorStats(estimates, data.truth().mean);
      table.NewRow()
          .AddCell(central ? "central" : "local")
          .AddDouble(gamma, 3)
          .AddDouble(stats.nrmse)
          .AddDouble(top_counts.population_stddev(), 4);
    }
  }
  output.AddTable(table);
  return output.Finish();
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) { return bitpush::Main(argc, argv); }
