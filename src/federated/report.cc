#include "federated/report.h"

#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

void CommunicationStats::MergeFrom(const CommunicationStats& other) {
  requests_sent += other.requests_sent;
  reports_received += other.reports_received;
  private_bits += other.private_bits;
  payload_bytes += other.payload_bytes;
}

void EncodeCommunicationStats(const CommunicationStats& stats,
                              std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(stats.requests_sent, out);
  bytes::PutInt64(stats.reports_received, out);
  bytes::PutInt64(stats.private_bits, out);
  bytes::PutInt64(stats.payload_bytes, out);
}

bool DecodeCommunicationStats(std::span<const uint8_t> buffer,
                              size_t* offset, CommunicationStats* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  CommunicationStats stats;
  if (!bytes::GetInt64(buffer, &cursor, &stats.requests_sent) ||
      !bytes::GetInt64(buffer, &cursor, &stats.reports_received) ||
      !bytes::GetInt64(buffer, &cursor, &stats.private_bits) ||
      !bytes::GetInt64(buffer, &cursor, &stats.payload_bytes)) {
    return false;
  }
  if (stats.requests_sent < 0 || stats.reports_received < 0 ||
      stats.private_bits < 0 || stats.payload_bytes < 0) {
    return false;
  }
  *out = stats;
  *offset = cursor;
  return true;
}

}  // namespace bitpush
