// Simulated client device.
//
// A client holds one or more private values for a feature (Section 4.3:
// "for many features of interest, most clients hold several values"),
// selects the value to contribute per the configured semantics, and answers
// the server's bit requests — metering every disclosed private bit, and
// dropping out of rounds with a configured probability (the intermittent
// connectivity of Section 4.3).
//
// Layout: a Client is one 32-byte, 32-aligned record, so a population is a
// flat array with one cache line per client. A single value sits inline;
// only a client with several values owns a heap array.

#ifndef BITPUSH_FEDERATED_CLIENT_H_
#define BITPUSH_FEDERATED_CLIENT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/poisoning.h"
#include "federated/report.h"
#include "ldp/randomized_response.h"
#include "rng/rng.h"

namespace bitpush {

// How a multi-value client reduces its local values to the single value it
// contributes (Section 4.3, "Aggregating multiple local values per
// feature").
enum class ValuePolicy : uint8_t {
  kSampleOne,   // uniform random local value (the deployed semantics)
  kLocalMean,   // mean of the local values
  kFirstValue,  // deterministic; degenerate single-value clients
};

struct ClientConfig {
  double dropout_probability = 0.0;
  ValuePolicy value_policy = ValuePolicy::kSampleOne;
  AdversaryMode adversary = AdversaryMode::kHonest;
};

// Everything an answer reads from a client, copied out of its record: a
// collection round copies these ahead of its slot loop, so that answering
// touches no client memory unless the client holds several values.
struct ClientFields {
  int64_t id = 0;
  double dropout_probability = 0.0;
  // The first value, and all `value_count` of them; `values` points into
  // the client's record or array, which must outlive the fields.
  double first_value = 0.0;
  const double* values = nullptr;
  uint32_t value_count = 1;
  ValuePolicy value_policy = ValuePolicy::kSampleOne;
  AdversaryMode adversary = AdversaryMode::kHonest;
};

// The value a client with `client`'s fields contributes under its policy.
// kSampleOne draws one NextBelow(value_count), also for a single value.
double SelectValue(const ClientFields& client, Rng& rng);

// Answers one bit request, drawing in the order every caller keeps: the
// dropout draw; the privacy-meter charge, decided against `lookup` (the
// client's ledger entry for request.value_id as the meter will hold it
// once every earlier charge is applied); the value draw; the adversary's
// policy; randomized response `rr` (the request's). Returns false, having
// drawn nothing after the dropout draw, when the client drops out or the
// meter denies the charge. A granted charge leaves its ledger row update
// to the caller (PrivacyMeter::ApplyCharge). `meter` may be null (no
// metering); `lookup` is then ignored.
bool AnswerRequest(const ClientFields& client, const BitRequest& request,
                   const FixedPointCodec& codec, bool local_randomness,
                   const RandomizedResponse& rr, PrivacyMeter* meter,
                   const PrivacyMeter::ChargeLookup& lookup, Rng& rng,
                   BitReport* report);

class alignas(32) Client {
 public:
  // `values` must be non-empty.
  Client(int64_t id, std::vector<double> values, ClientConfig config);
  Client(const Client& other);
  Client(Client&& other) noexcept;
  Client& operator=(Client other) noexcept;
  ~Client();

  int64_t id() const { return id_; }
  std::span<const double> values() const {
    return value_count_ == 1 ? std::span<const double>(&value_, 1)
                             : std::span<const double>(values_, value_count_);
  }
  ClientConfig config() const {
    return ClientConfig{dropout_probability_, value_policy_, adversary_};
  }
  ClientFields fields() const {
    return ClientFields{id_,
                        dropout_probability_,
                        value_count_ == 1 ? value_ : values_[0],
                        value_count_ == 1 ? &value_ : values_,
                        value_count_,
                        value_policy_,
                        adversary_};
  }

  // The value this client would contribute under its policy.
  double SelectValue(Rng& rng) const;

  // Handles one bit request. Returns nullopt when the client drops out of
  // the round or its privacy meter refuses the disclosure. `local_bit_index`
  // lets a local-randomness protocol (or an adversary) override the
  // server's choice; honest central-randomness clients pass the request's
  // index through. `meter` may be null (no metering).
  std::optional<BitReport> HandleRequest(const BitRequest& request,
                                         const FixedPointCodec& codec,
                                         bool local_randomness,
                                         PrivacyMeter* meter, Rng& rng) const;

 private:
  int64_t id_;
  double dropout_probability_;
  // The value when the client has one, its owned array of value_count_
  // values otherwise.
  union {
    double value_;
    double* values_;
  };
  uint32_t value_count_;
  ValuePolicy value_policy_;
  AdversaryMode adversary_;
};

static_assert(sizeof(Client) == 32, "a client is one half cache line");

// Builds one single-value client per element of `values`, ids 0..n-1.
std::vector<Client> MakePopulation(const std::vector<double>& values,
                                   const ClientConfig& config);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_CLIENT_H_
