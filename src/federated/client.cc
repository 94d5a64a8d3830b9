#include "federated/client.h"

#include <utility>

#include "stats/welford.h"
#include "util/check.h"

namespace bitpush {

double SelectValue(const ClientFields& client, Rng& rng) {
  switch (client.value_policy) {
    case ValuePolicy::kSampleOne: {
      const uint64_t pick = rng.NextBelow(client.value_count);
      return pick == 0 ? client.first_value : client.values[pick];
    }
    case ValuePolicy::kLocalMean: {
      if (client.value_count == 1) return client.first_value;
      Welford acc;
      for (uint32_t i = 0; i < client.value_count; ++i) {
        acc.Add(client.values[i]);
      }
      return acc.mean();
    }
    case ValuePolicy::kFirstValue:
      return client.first_value;
  }
  BITPUSH_CHECK(false) << "unreachable";
  return 0.0;
}

AnswerStatus AnswerRequest(const ClientFields& client,
                           const BitRequest& request,
                           const FixedPointCodec& codec,
                           bool local_randomness,
                           const RandomizedResponse& rr, PrivacyMeter* meter,
                           const PrivacyMeter::ChargeLookup& lookup, Rng& rng,
                           BitReport* report) {
  if (rng.NextBernoulli(client.dropout_probability)) {
    return AnswerStatus::kDroppedOut;
  }
  if (meter != nullptr &&
      !meter->TryChargeBit(request.value_id,
                           request.rr_epsilon > 0 ? request.rr_epsilon : 0.0,
                           lookup)) {
    return AnswerStatus::kDenied;
  }

  const uint64_t codeword = codec.Encode(SelectValue(client, rng));
  const int true_bit = FixedPointCodec::Bit(codeword, request.bit_index);
  int reported_index = request.bit_index;
  const int raw_bit =
      client.adversary == AdversaryMode::kHonest
          ? true_bit
          : PoisonedBit(client.adversary, local_randomness, codec.bits() - 1,
                        request.bit_index, true_bit, &reported_index);
  // Adversaries skip their own noise addition: they report exactly the bit
  // they want the server to see. Honest clients perturb.
  const int bit = client.adversary == AdversaryMode::kHonest
                      ? rr.Apply(raw_bit, rng)
                      : raw_bit;
  *report = BitReport{client.id, reported_index, bit};
  return AnswerStatus::kAnswered;
}

Client::Client(int64_t id, std::vector<double> values, ClientConfig config)
    : id_(id),
      dropout_probability_(config.dropout_probability),
      value_count_(static_cast<uint32_t>(values.size())),
      value_policy_(config.value_policy),
      adversary_(config.adversary) {
  BITPUSH_CHECK(!values.empty());
  BITPUSH_CHECK_LE(values.size(), size_t{UINT32_MAX});
  BITPUSH_CHECK_GE(dropout_probability_, 0.0);
  BITPUSH_CHECK_LE(dropout_probability_, 1.0);
  if (value_count_ == 1) {
    value_ = values.front();
  } else {
    values_ = new double[value_count_];
    std::copy(values.begin(), values.end(), values_);
  }
}

Client::Client(const Client& other)
    : id_(other.id_),
      dropout_probability_(other.dropout_probability_),
      value_count_(other.value_count_),
      value_policy_(other.value_policy_),
      adversary_(other.adversary_) {
  if (value_count_ == 1) {
    value_ = other.value_;
  } else {
    values_ = new double[value_count_];
    std::copy(other.values_, other.values_ + value_count_, values_);
  }
}

Client::Client(Client&& other) noexcept
    : id_(other.id_),
      dropout_probability_(other.dropout_probability_),
      value_count_(other.value_count_),
      value_policy_(other.value_policy_),
      adversary_(other.adversary_) {
  if (value_count_ == 1) {
    value_ = other.value_;
  } else {
    // The moved-from client keeps a single (zero) value, which owns
    // nothing.
    values_ = std::exchange(other.values_, nullptr);
    other.value_count_ = 1;
    other.value_ = 0.0;
  }
}

Client& Client::operator=(Client other) noexcept {
  std::swap(id_, other.id_);
  std::swap(dropout_probability_, other.dropout_probability_);
  std::swap(value_policy_, other.value_policy_);
  std::swap(adversary_, other.adversary_);
  // Swap the storage by its active member on each side.
  const double mine_value = value_count_ == 1 ? value_ : 0.0;
  double* const mine_values = value_count_ == 1 ? nullptr : values_;
  if (other.value_count_ == 1) {
    value_ = other.value_;
  } else {
    values_ = other.values_;
  }
  if (value_count_ == 1) {
    other.value_ = mine_value;
  } else {
    other.values_ = mine_values;
  }
  std::swap(value_count_, other.value_count_);
  return *this;
}

Client::~Client() {
  if (value_count_ != 1) delete[] values_;
}

std::optional<BitReport> Client::HandleRequest(const BitRequest& request,
                                               const FixedPointCodec& codec,
                                               bool local_randomness,
                                               PrivacyMeter* meter,
                                               Rng& rng) const {
  // The client and the value are registered first, so that the grant
  // updates their row in place.
  const size_t value =
      meter != nullptr ? meter->RegisterValue(request.value_id) : 0;
  const PrivacyMeter::ChargeLookup lookup =
      meter != nullptr ? meter->Lookup(meter->Register(id_), value)
                       : PrivacyMeter::ChargeLookup{};
  const int64_t decided_before =
      meter != nullptr ? meter->total_bits() + meter->denied_charges() : 0;
  BitReport report;
  const bool answered =
      AnswerRequest(fields(), request, codec, local_randomness,
                    RandomizedResponse::FromEpsilon(request.rr_epsilon),
                    meter, lookup, rng, &report) == AnswerStatus::kAnswered;
  if (meter != nullptr) {
    if (answered) {
      meter->ApplyCharge(lookup.row, value,
                         request.rr_epsilon > 0 ? request.rr_epsilon : 0.0);
    }
    // As the composed TryChargeBit does: the gauges follow every charge.
    if (meter->total_bits() + meter->denied_charges() != decided_before) {
      meter->PublishObsGauges();
    }
  }
  if (!answered) return std::nullopt;
  return report;
}

std::vector<Client> MakePopulation(const std::vector<double>& values,
                                   const ClientConfig& config) {
  std::vector<Client> clients;
  clients.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    clients.emplace_back(static_cast<int64_t>(i),
                         std::vector<double>{values[i]}, config);
  }
  return clients;
}

}  // namespace bitpush
