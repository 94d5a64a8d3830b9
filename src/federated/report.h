// Message types exchanged between the aggregation server and clients, plus
// communication accounting (the paper's "Communication costs" discussion:
// the private payload is one bit, but headers and the sampled bit index
// must be carried too).

#ifndef BITPUSH_FEDERATED_REPORT_H_
#define BITPUSH_FEDERATED_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bitpush {

// Server -> client: report bit `bit_index` of the value identified by
// `value_id`, perturbed by randomized response at `rr_epsilon` (<= 0 means
// no perturbation).
struct BitRequest {
  int64_t round_id = 0;
  int64_t value_id = 0;
  int bit_index = 0;
  double rr_epsilon = 0.0;
};

// Client -> server: the (possibly perturbed) bit.
struct BitReport {
  int64_t client_id = 0;
  int bit_index = 0;
  int bit = 0;
};

// Accounting across a collection round.
struct CommunicationStats {
  int64_t requests_sent = 0;
  int64_t reports_received = 0;
  // Count of *private* bits disclosed (the quantity the privacy meter
  // bounds); equals reports_received for honest clients.
  int64_t private_bits = 0;
  // Estimated wire bytes: requests and reports each fit one small packet.
  int64_t payload_bytes = 0;

  void MergeFrom(const CommunicationStats& other);

  friend bool operator==(const CommunicationStats&,
                         const CommunicationStats&) = default;
};

// Serialization for the durable-state layer (src/persist/). Decoding
// rejects negative counters and returns false without touching `*out`.
void EncodeCommunicationStats(const CommunicationStats& stats,
                              std::vector<uint8_t>* out);
bool DecodeCommunicationStats(std::span<const uint8_t> buffer,
                              size_t* offset, CommunicationStats* out);

// Wire-size model: a request carries the round id, the value id, the bit
// index and epsilon (8 + 8 + 1 + 8 bytes); a report the client id, the bit
// index and the bit (8 + 1 + 1: the single private bit rides in the low
// bit, the rest is protocol overhead).
inline constexpr int64_t kRequestPayloadBytes = 25;
inline constexpr int64_t kReportPayloadBytes = 10;

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_REPORT_H_
