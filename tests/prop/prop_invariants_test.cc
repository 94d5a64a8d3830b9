// Paper-level invariants stated as bitprop properties (ROADMAP item 2).
//
// Each TEST below is one universal statement from the paper — estimator
// unbiasedness under randomized response, variance-bound monotonicity in n
// and bit depth, exact fixed-point round-trips, secure-agg mask
// cancellation, privacy-meter budget conservation — checked over a seeded
// random domain instead of a hand-picked grid. Cases embed every seed they
// need (e.g. the Monte-Carlo trial seed for the RR confidence interval), so
// properties stay pure functions of the generated value and a printed
// BITPROP_SEED replays generation, failure, and shrink exactly.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/secure_agg.h"
#include "ldp/randomized_response.h"
#include "prop/bitprop.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

using ::bitpush::prop::CheckOptions;
using ::bitpush::prop::CheckProperty;
using ::bitpush::prop::Domain;

// ---------------------------------------------------------------------------
// Fixed-point encode/decode round-trip and quantization-error bound
// (Section 3.1 / 4.3: clipping plus rounding to the nearest of 2^b levels).

struct RangeCodecCase {
  int64_t bits = 1;
  double low = 0.0;
  double span = 1.0;
  // Position of x relative to [low, high], deliberately overshooting both
  // ends ([-0.25, 1.25] of the span) so clipping is part of the property.
  double frac = 0.0;

  double x() const { return low + (frac * 1.5 - 0.25) * span; }
};

Domain<RangeCodecCase> RangeCodecDomain() {
  Domain<RangeCodecCase> domain;
  domain.generate = [](Rng& rng) {
    RangeCodecCase c;
    c.bits = 1 + static_cast<int64_t>(rng.NextBelow(kMaxBits));
    c.low = -100.0 + 200.0 * rng.NextDouble();
    c.span = 1e-3 + 200.0 * rng.NextDouble();
    c.frac = rng.NextDouble();
    return c;
  };
  domain.shrink = [](const RangeCodecCase& c) {
    std::vector<RangeCodecCase> out;
    for (int64_t bits : {int64_t{1}, c.bits / 2, c.bits - 1}) {
      if (bits >= 1 && bits < c.bits) {
        RangeCodecCase smaller = c;
        smaller.bits = bits;
        out.push_back(smaller);
      }
    }
    if (c.low != 0.0) {
      RangeCodecCase smaller = c;
      smaller.low = 0.0;
      out.push_back(smaller);
    }
    for (double frac : {0.5, c.frac / 2.0}) {
      if (frac < c.frac) {
        RangeCodecCase smaller = c;
        smaller.frac = frac;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const RangeCodecCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{bits=" << c.bits << " low=" << c.low << " span=" << c.span
        << " x=" << c.x() << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, FixedPointRoundTripWithinHalfResolution) {
  CheckProperty<RangeCodecCase>(
      "fixed-point round-trip stays within resolution/2 of the clipped input",
      RangeCodecDomain(),
      [](const RangeCodecCase& c) -> std::optional<std::string> {
        const FixedPointCodec codec(static_cast<int>(c.bits), c.low,
                                    c.low + c.span);
        const double x = c.x();
        const uint64_t code = codec.Encode(x);
        if (code > codec.max_codeword()) {
          return "Encode produced a codeword above max_codeword";
        }
        const double clipped = std::clamp(x, codec.low(), codec.high());
        const double decoded = codec.Decode(static_cast<double>(code));
        const double tolerance = codec.resolution() / 2.0 + 1e-7;
        if (std::abs(decoded - clipped) > tolerance) {
          std::ostringstream out;
          out.precision(17);
          out << "quantization error " << std::abs(decoded - clipped)
              << " exceeds resolution/2 = " << codec.resolution() / 2.0;
          return out.str();
        }
        return std::nullopt;
      });
}

struct IntegerCodecCase {
  int64_t bits = 1;
  uint64_t raw = 0;  // reduced mod (max_codeword + 1) by the property

  uint64_t value() const {
    const FixedPointCodec codec = FixedPointCodec::Integer(
        static_cast<int>(bits));
    return raw % (codec.max_codeword() + 1);
  }
};

Domain<IntegerCodecCase> IntegerCodecDomain() {
  Domain<IntegerCodecCase> domain;
  domain.generate = [](Rng& rng) {
    IntegerCodecCase c;
    c.bits = 1 + static_cast<int64_t>(rng.NextBelow(kMaxBits));
    c.raw = rng.NextUint64();
    return c;
  };
  domain.shrink = [](const IntegerCodecCase& c) {
    std::vector<IntegerCodecCase> out;
    for (int64_t bits : {int64_t{1}, c.bits / 2, c.bits - 1}) {
      if (bits >= 1 && bits < c.bits) {
        IntegerCodecCase smaller = c;
        smaller.bits = bits;
        out.push_back(smaller);
      }
    }
    for (uint64_t raw : {uint64_t{0}, c.raw / 2}) {
      if (raw < c.raw) {
        IntegerCodecCase smaller = c;
        smaller.raw = raw;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const IntegerCodecCase& c) {
    std::ostringstream out;
    out << "{bits=" << c.bits << " value=" << c.value() << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, FixedPointIntegerRoundTripAndBitRecombineExact) {
  CheckProperty<IntegerCodecCase>(
      "integer codewords round-trip exactly and recombine from their bits",
      IntegerCodecDomain(),
      [](const IntegerCodecCase& c) -> std::optional<std::string> {
        const FixedPointCodec codec =
            FixedPointCodec::Integer(static_cast<int>(c.bits));
        const uint64_t v = c.value();
        if (codec.Encode(static_cast<double>(v)) != v) {
          return "Encode(v) != v for an in-domain integer";
        }
        const double decoded = codec.Decode(static_cast<double>(v));
        if (decoded != static_cast<double>(v)) {
          return "Decode(v) != v for an in-domain integer";
        }
        double recombined = 0.0;
        for (int j = 0; j < codec.bits(); ++j) {
          recombined += std::exp2(j) * FixedPointCodec::Bit(v, j);
        }
        if (recombined != static_cast<double>(v)) {
          return "sum_j 2^j * Bit(v, j) != v";
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Randomized response: the unbiasing identity, exactly and empirically
// within a confidence interval (Section 3.3).

struct RrCase {
  double epsilon = 1.0;
  int64_t bit = 0;
  uint64_t trial_seed = 0;  // seed of the Monte-Carlo trials, part of the case
};

Domain<RrCase> RrDomain() {
  Domain<RrCase> domain;
  domain.generate = [](Rng& rng) {
    RrCase c;
    c.epsilon = 0.05 + 7.95 * rng.NextDouble();
    c.bit = static_cast<int64_t>(rng.NextBit());
    c.trial_seed = rng.NextUint64();
    return c;
  };
  domain.shrink = [](const RrCase& c) {
    std::vector<RrCase> out;
    if (c.bit == 1) {
      RrCase smaller = c;
      smaller.bit = 0;
      out.push_back(smaller);
    }
    for (double epsilon : {1.0, c.epsilon / 2.0}) {
      if (epsilon >= 0.05 && epsilon < c.epsilon) {
        RrCase smaller = c;
        smaller.epsilon = epsilon;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const RrCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{epsilon=" << c.epsilon << " bit=" << c.bit
        << " trial_seed=" << c.trial_seed << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, RrUnbiasingIdentityIsExactOnExpectations) {
  CheckProperty<RrCase>(
      "Unbias maps the exact report expectation back to the true bit",
      RrDomain(), [](const RrCase& c) -> std::optional<std::string> {
        const RandomizedResponse rr(c.epsilon);
        const double p = rr.truth_probability();
        // E[report | bit] = bit ? p : 1 - p; Unbias must invert it.
        const double expectation =
            c.bit == 1 ? p : 1.0 - p;
        const double unbiased = rr.Unbias(expectation);
        if (std::abs(unbiased - static_cast<double>(c.bit)) > 1e-9) {
          std::ostringstream out;
          out.precision(17);
          out << "Unbias(E[report]) = " << unbiased << ", want " << c.bit;
          return out.str();
        }
        return std::nullopt;
      });
}

TEST(PropInvariantsTest, RrUnbiasedEstimatorWithinConfidenceInterval) {
  CheckOptions options;
  options.iterations = 100;        // 100 cases x 20k trials: still fast
  options.max_iterations = 20000;  // bound the long mode for this MC suite
  CheckProperty<RrCase>(
      "the unbiased RR mean lands within 6 standard errors of the true bit",
      RrDomain(),
      [](const RrCase& c) -> std::optional<std::string> {
        const RandomizedResponse rr(c.epsilon);
        Rng trials(c.trial_seed);
        const int kTrials = 20000;
        double sum = 0.0;
        for (int i = 0; i < kTrials; ++i) {
          sum += rr.Unbias(static_cast<double>(
              rr.Apply(static_cast<int>(c.bit), trials)));
        }
        const double mean = sum / kTrials;
        const double se = std::sqrt(rr.ReportVariance() / kTrials);
        const double slack = 6.0 * se + 1e-9;
        if (std::abs(mean - static_cast<double>(c.bit)) > slack) {
          std::ostringstream out;
          out.precision(17);
          out << "unbiased mean " << mean << " misses bit " << c.bit
              << " by more than 6 SE (" << slack << ")";
          return out.str();
        }
        return std::nullopt;
      },
      options);
}

// ---------------------------------------------------------------------------
// Variance-bound monotonicity (Lemma 3.1 plug-in): decreasing in n,
// non-decreasing in bit depth for the geometric allocation family.

struct VarianceCase {
  std::vector<double> means;  // length = bits + 1; last entry is the extra bit
  double gamma = 1.0;
  int64_t n = 1;
  int64_t extra_n = 1;
};

Domain<VarianceCase> VarianceDomain() {
  Domain<VarianceCase> domain;
  domain.generate = [](Rng& rng) {
    VarianceCase c;
    const size_t bits = 1 + static_cast<size_t>(rng.NextBelow(30));
    c.means.resize(bits + 1);
    for (double& m : c.means) m = rng.NextDouble();
    c.gamma = 2.0 * rng.NextDouble();
    c.n = 1 + static_cast<int64_t>(rng.NextBelow(1000000));
    c.extra_n = 1 + static_cast<int64_t>(rng.NextBelow(1000000));
    return c;
  };
  domain.shrink = [](const VarianceCase& c) {
    std::vector<VarianceCase> out;
    if (c.means.size() > 2) {
      VarianceCase smaller = c;
      smaller.means.resize(std::max<size_t>(2, c.means.size() / 2));
      out.push_back(smaller);
    }
    for (size_t i = 0; i < c.means.size(); ++i) {
      if (c.means[i] != 0.0) {
        VarianceCase smaller = c;
        smaller.means[i] = 0.0;
        out.push_back(smaller);
      }
    }
    if (c.n > 1) {
      VarianceCase smaller = c;
      smaller.n = std::max<int64_t>(1, c.n / 2);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const VarianceCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{bits=" << c.means.size() - 1 << " gamma=" << c.gamma
        << " n=" << c.n << " extra_n=" << c.extra_n << " means=[";
    for (size_t i = 0; i < c.means.size(); ++i) {
      if (i > 0) out << ", ";
      out << c.means[i];
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, VarianceBoundScalesInverselyWithN) {
  CheckProperty<VarianceCase>(
      "the Lemma 3.1 bound decreases in n and scales exactly as 1/n",
      VarianceDomain(),
      [](const VarianceCase& c) -> std::optional<std::string> {
        const int bits = static_cast<int>(c.means.size()) - 1;
        const std::vector<double> prefix(c.means.begin(),
                                         c.means.end() - 1);
        const std::vector<double> p = GeometricProbabilities(bits, c.gamma);
        const double at_n = VarianceBound(prefix, p, static_cast<double>(c.n));
        const double at_more = VarianceBound(
            prefix, p, static_cast<double>(c.n + c.extra_n));
        if (at_more > at_n * (1.0 + 1e-12) + 1e-12) {
          return "bound increased when n grew";
        }
        // Exact 1/n scaling: n * bound(n) is constant in n.
        const double lhs = static_cast<double>(c.n) * at_n;
        const double rhs = static_cast<double>(c.n + c.extra_n) * at_more;
        if (std::abs(lhs - rhs) > 1e-9 * std::max(1.0, std::abs(lhs))) {
          return "n * bound(n) is not constant in n";
        }
        return std::nullopt;
      });
}

TEST(PropInvariantsTest, VarianceBoundMonotoneInBitDepth) {
  CheckProperty<VarianceCase>(
      "adding a bit never lowers the geometric-allocation variance bound",
      VarianceDomain(),
      [](const VarianceCase& c) -> std::optional<std::string> {
        const int bits = static_cast<int>(c.means.size()) - 1;
        const std::vector<double> prefix(c.means.begin(),
                                         c.means.end() - 1);
        const double shallow = VarianceBound(
            prefix, GeometricProbabilities(bits, c.gamma),
            static_cast<double>(c.n));
        const double deep = VarianceBound(
            c.means, GeometricProbabilities(bits + 1, c.gamma),
            static_cast<double>(c.n));
        // Every term grows (the normalizer gains the new bit's weight, so
        // every p_j shrinks) and the new term is non-negative.
        if (deep < shallow * (1.0 - 1e-12) - 1e-9) {
          std::ostringstream out;
          out.precision(17);
          out << "bound fell from " << shallow << " to " << deep
              << " when bit depth grew";
          return out.str();
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Secure aggregation: pairwise masks cancel exactly (Section 3.3).

struct SecureAggCase {
  uint64_t session_seed = 0;
  std::vector<uint64_t> values;
};

Domain<SecureAggCase> SecureAggDomain() {
  Domain<SecureAggCase> domain;
  domain.generate = [](Rng& rng) {
    SecureAggCase c;
    c.session_seed = rng.NextUint64();
    const size_t n = 1 + static_cast<size_t>(rng.NextBelow(64));
    c.values.resize(n);
    for (uint64_t& v : c.values) v = rng.NextUint64();
    return c;
  };
  domain.shrink = [](const SecureAggCase& c) {
    std::vector<SecureAggCase> out;
    if (c.values.size() > 1) {
      SecureAggCase smaller = c;
      smaller.values.resize(std::max<size_t>(1, c.values.size() / 2));
      out.push_back(smaller);
    }
    for (size_t i = 0; i < c.values.size(); ++i) {
      if (c.values[i] != 0) {
        SecureAggCase smaller = c;
        smaller.values[i] = 0;
        out.push_back(smaller);
      }
    }
    return out;
  };
  domain.describe = [](const SecureAggCase& c) {
    std::ostringstream out;
    out << "{seed=" << c.session_seed << " n=" << c.values.size() << "}";
    return out.str();
  };
  return domain;
}

TEST(PropInvariantsTest, SecureAggMasksCancelToExactSum) {
  CheckProperty<SecureAggCase>(
      "masked submissions sum to the exact plaintext sum mod 2^64",
      SecureAggDomain(),
      [](const SecureAggCase& c) -> std::optional<std::string> {
        Rng rng(c.session_seed);
        SecureAggregator agg(static_cast<int64_t>(c.values.size()), rng);
        const int64_t n = static_cast<int64_t>(c.values.size());
        std::vector<uint64_t> masked(c.values.size());
        agg.MaskBatch(c.values.data(), n, /*first_slot=*/0, masked.data());
        agg.SubmitBatch(masked.data(), n);
        uint64_t expected = 0;
        for (const uint64_t value : c.values) {
          expected += value;  // Z_{2^64} wraparound is the protocol's ring
        }
        if (!agg.complete()) return "aggregator not complete after all submits";
        if (agg.Sum() != expected) {
          std::ostringstream out;
          out << "recovered sum " << agg.Sum() << " != plaintext sum "
              << expected;
          return out.str();
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Privacy meter: budget conservation under random charge/deny sequences,
// checked against an independent reference model of the §1.1 caps, plus
// canonical serialization round-trip.

struct ChargeOp {
  int64_t client = 0;
  int64_t value = 0;
  int64_t epsilon_selector = 0;  // index into kEpsilonChoices

  double epsilon() const {
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    const double choices[] = {0.0, 0.25, 0.5, 1.0,
                              2.0, -1.0, kInf, std::nan("")};
    return choices[epsilon_selector];
  }
};

struct MeterCase {
  int64_t max_bits_per_value = 1;
  int64_t max_bits_per_client = 1;
  double max_epsilon_per_client = 1.0;
  std::vector<ChargeOp> ops;
};

Domain<MeterCase> MeterDomain() {
  Domain<MeterCase> domain;
  domain.generate = [](Rng& rng) {
    MeterCase c;
    c.max_bits_per_value = 1 + static_cast<int64_t>(rng.NextBelow(3));
    c.max_bits_per_client = 1 + static_cast<int64_t>(rng.NextBelow(16));
    const double epsilon_caps[] = {0.5, 1.0, 4.0,
                                   std::numeric_limits<double>::infinity()};
    c.max_epsilon_per_client = epsilon_caps[rng.NextBelow(4)];
    // The extremes of int64 (no id may double as the ledger's free-row
    // marker) plus up to a few thousand ids from a wide range, so the
    // ledger's tables double several times and their probes wrap.
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    std::vector<int64_t> clients = {kMin, -1, 0, 1, kMax};
    const size_t extra_clients = static_cast<size_t>(rng.NextBelow(3000));
    for (size_t i = 0; i < extra_clients; ++i) {
      clients.push_back(static_cast<int64_t>(rng.NextBelow(20000)) - 10000);
    }
    // Each client holds 1-6 distinct value ids out of a pool of 8.
    const int64_t value_pool[] = {kMin, -7, 0, 1, 2, 3, 1000, kMax};
    std::vector<std::vector<int64_t>> values(clients.size());
    for (std::vector<int64_t>& held : values) {
      std::vector<int64_t> pool(std::begin(value_pool), std::end(value_pool));
      const size_t count = 1 + static_cast<size_t>(rng.NextBelow(6));
      for (size_t v = 0; v < count; ++v) {
        const size_t pick = v + static_cast<size_t>(rng.NextBelow(
                                    static_cast<uint64_t>(pool.size() - v)));
        std::swap(pool[v], pool[pick]);
        held.push_back(pool[v]);
      }
    }
    const size_t n = 1 + static_cast<size_t>(rng.NextBelow(
                             static_cast<uint64_t>(3 * clients.size())));
    c.ops.resize(n);
    for (ChargeOp& op : c.ops) {
      const size_t who = static_cast<size_t>(rng.NextBelow(clients.size()));
      op.client = clients[who];
      op.value = values[who][static_cast<size_t>(
          rng.NextBelow(static_cast<uint64_t>(values[who].size())))];
      op.epsilon_selector = static_cast<int64_t>(rng.NextBelow(8));
    }
    return c;
  };
  domain.shrink = [](const MeterCase& c) {
    // Remove runs of ops, longest first. Single ops go only once a case is
    // short, so a case of thousands of ops yields a bounded candidate list.
    std::vector<MeterCase> out;
    const size_t n = c.ops.size();
    for (size_t run = n / 2; run >= 1 && n / run <= 64; run /= 2) {
      for (size_t start = 0; start < n; start += run) {
        const size_t end = std::min(start + run, n);
        MeterCase smaller = c;
        smaller.ops.erase(smaller.ops.begin() + static_cast<ptrdiff_t>(start),
                          smaller.ops.begin() + static_cast<ptrdiff_t>(end));
        out.push_back(std::move(smaller));
      }
    }
    return out;
  };
  domain.describe = [](const MeterCase& c) {
    std::ostringstream out;
    out << "{caps: value=" << c.max_bits_per_value
        << " client=" << c.max_bits_per_client
        << " epsilon=" << c.max_epsilon_per_client << "; ops=[";
    for (size_t i = 0; i < c.ops.size(); ++i) {
      if (i > 0) out << " ";
      out << "(" << c.ops[i].client << "," << c.ops[i].value << ","
          << c.ops[i].epsilon() << ")";
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

// Reference model of TryChargeBit: the documented cap semantics, written
// independently of core/privacy_meter.cc so the two can disagree.
struct MeterModel {
  explicit MeterModel(const MeterPolicy& policy) : policy(policy) {}

  bool Charge(int64_t client, int64_t value, double epsilon) {
    if (!std::isfinite(epsilon) || epsilon < 0.0) {
      ++denied;
      return false;
    }
    const int64_t value_bits = bits_per_value[{client, value}];
    const int64_t client_bits = bits_per_client[client];
    const double client_epsilon = epsilon_per_client[client];
    if (value_bits + 1 > policy.max_bits_per_value ||
        client_bits + 1 > policy.max_bits_per_client ||
        client_epsilon + epsilon > policy.max_epsilon_per_client) {
      ++denied;
      return false;
    }
    bits_per_value[{client, value}] = value_bits + 1;
    bits_per_client[client] = client_bits + 1;
    epsilon_per_client[client] = client_epsilon + epsilon;
    total_bits += 1;
    total_epsilon += epsilon;
    return true;
  }

  MeterPolicy policy;
  std::map<std::pair<int64_t, int64_t>, int64_t> bits_per_value;
  std::map<int64_t, int64_t> bits_per_client;
  std::map<int64_t, double> epsilon_per_client;
  int64_t total_bits = 0;
  double total_epsilon = 0.0;
  int64_t denied = 0;
};

// The canonical meter encoding, written over the model's sorted maps: the
// policy and totals, then each client with a nonzero ledger in id order,
// with its nonzero value counts in value order.
std::vector<uint8_t> EncodeModel(const MeterModel& model) {
  std::vector<uint8_t> out;
  bytes::PutInt64(model.policy.max_bits_per_value, &out);
  bytes::PutInt64(model.policy.max_bits_per_client, &out);
  bytes::PutDouble(model.policy.max_epsilon_per_client, &out);
  bytes::PutInt64(model.total_bits, &out);
  bytes::PutInt64(model.denied, &out);
  std::vector<int64_t> clients;
  for (const auto& [client, bits] : model.bits_per_client) {
    if (bits > 0 || model.epsilon_per_client.at(client) > 0.0) {
      clients.push_back(client);
    }
  }
  bytes::PutUint32(static_cast<uint32_t>(clients.size()), &out);
  for (const int64_t client : clients) {
    bytes::PutInt64(client, &out);
    bytes::PutInt64(model.bits_per_client.at(client), &out);
    bytes::PutDouble(model.epsilon_per_client.at(client), &out);
    std::vector<std::pair<int64_t, int64_t>> values;
    for (auto it = model.bits_per_value.lower_bound(
             {client, std::numeric_limits<int64_t>::min()});
         it != model.bits_per_value.end() && it->first.first == client;
         ++it) {
      if (it->second > 0) values.emplace_back(it->first.second, it->second);
    }
    bytes::PutUint32(static_cast<uint32_t>(values.size()), &out);
    for (const auto& [value, bits] : values) {
      bytes::PutInt64(value, &out);
      bytes::PutInt64(bits, &out);
    }
  }
  return out;
}

TEST(PropInvariantsTest, PrivacyMeterConservesBudgetAgainstReferenceModel) {
  CheckProperty<MeterCase>(
      "every charge decision, ledger total, and denial count matches the "
      "documented cap model, and no cap is ever exceeded",
      MeterDomain(),
      [](const MeterCase& c) -> std::optional<std::string> {
        MeterPolicy policy;
        policy.max_bits_per_value = c.max_bits_per_value;
        policy.max_bits_per_client = c.max_bits_per_client;
        policy.max_epsilon_per_client = c.max_epsilon_per_client;
        PrivacyMeter meter(policy);
        MeterModel model(policy);
        for (size_t i = 0; i < c.ops.size(); ++i) {
          const ChargeOp& op = c.ops[i];
          const bool granted =
              meter.TryChargeBit(op.client, op.value, op.epsilon());
          const bool expected = model.Charge(op.client, op.value,
                                             op.epsilon());
          if (granted != expected) {
            std::ostringstream out;
            out << "op " << i << ": meter " << (granted ? "granted" : "denied")
                << " but the model " << (expected ? "granted" : "denied");
            return out.str();
          }
        }
        if (meter.total_bits() != model.total_bits) {
          return "total_bits diverged from the model";
        }
        if (meter.denied_charges() != model.denied) {
          return "denied_charges diverged from the model";
        }
        // Conservation: the global total is exactly the sum of per-client
        // ledgers, and no ledger exceeds its cap.
        int64_t client_sum = 0;
        for (const auto& [client, bits] : model.bits_per_client) {
          if (meter.ClientBits(client) != bits) {
            return "a per-client bit ledger diverged from the model";
          }
          if (meter.ClientEpsilon(client) !=
              model.epsilon_per_client[client]) {
            return "a per-client epsilon ledger diverged from the model";
          }
          if (bits > c.max_bits_per_client) {
            return "a client exceeded max_bits_per_client";
          }
          client_sum += bits;
        }
        if (client_sum != meter.total_bits()) {
          return "per-client bits do not sum to total_bits";
        }
        for (const auto& [key, bits] : model.bits_per_value) {
          if (meter.ValueBits(key.first, key.second) != bits) {
            return "a per-value bit ledger diverged from the model";
          }
          if (bits > c.max_bits_per_value) {
            return "a (client, value) pair exceeded max_bits_per_value";
          }
        }
        return std::nullopt;
      });
}

TEST(PropInvariantsTest, PrivacyMeterSerializationRoundTripIsCanonical) {
  CheckProperty<MeterCase>(
      "EncodeTo writes the model's canonical bytes, and EncodeTo -> "
      "DecodeFrom -> EncodeTo reproduces them and an identical ledger",
      MeterDomain(),
      [](const MeterCase& c) -> std::optional<std::string> {
        MeterPolicy policy;
        policy.max_bits_per_value = c.max_bits_per_value;
        policy.max_bits_per_client = c.max_bits_per_client;
        policy.max_epsilon_per_client = c.max_epsilon_per_client;
        PrivacyMeter meter(policy);
        MeterModel model(policy);
        for (const ChargeOp& op : c.ops) {
          meter.TryChargeBit(op.client, op.value, op.epsilon());
          model.Charge(op.client, op.value, op.epsilon());
        }
        std::vector<uint8_t> encoded;
        meter.EncodeTo(&encoded);
        // A self round trip cannot catch an encoder and a decoder that are
        // wrong in the same way; an encoder written over the model can.
        if (encoded != EncodeModel(model)) {
          return "EncodeTo differs from the model's canonical encoding";
        }
        PrivacyMeter decoded((MeterPolicy()));
        size_t offset = 0;
        if (!PrivacyMeter::DecodeFrom(encoded, &offset, &decoded)) {
          return "DecodeFrom rejected a meter's own encoding";
        }
        if (offset != encoded.size()) {
          return "DecodeFrom left trailing bytes unconsumed";
        }
        if (decoded.total_bits() != meter.total_bits() ||
            decoded.total_epsilon() != meter.total_epsilon()) {
          return "decoded ledger totals differ from the original";
        }
        std::vector<uint8_t> re_encoded;
        decoded.EncodeTo(&re_encoded);
        if (re_encoded != encoded) {
          return "re-encoding the decoded meter produced different bytes";
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace bitpush
