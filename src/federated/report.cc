#include "federated/report.h"

namespace bitpush {

CommunicationStats CommunicationStats::ForRound(int64_t contacted,
                                                int64_t responded) {
  CommunicationStats stats;
  stats.requests_sent = contacted;
  stats.reports_received = responded;
  stats.private_bits = responded;
  stats.payload_bytes =
      kRequestPayloadBytes * contacted + kReportPayloadBytes * responded;
  return stats;
}

void CommunicationStats::MergeFrom(const CommunicationStats& other) {
  requests_sent += other.requests_sent;
  reports_received += other.reports_received;
  private_bits += other.private_bits;
  payload_bytes += other.payload_bytes;
}

}  // namespace bitpush
