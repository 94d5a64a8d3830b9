#include "federated/wire.h"

#include "util/bytes.h"
#include "util/check.h"

// bitpush-lint: allow(privacy-metering): codec implementation; it serializes reports whose meter charge already happened in AnswerRequest (client.cc), before the report existed

namespace bitpush {

void EncodeBitReport(const BitReport& report, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(report.bit == 0 || report.bit == 1);
  BITPUSH_CHECK_GE(report.bit_index, 0);
  BITPUSH_CHECK_LT(report.bit_index, 256);
  bytes::PutUint64(static_cast<uint64_t>(report.client_id), out);
  out->push_back(static_cast<uint8_t>(report.bit_index));
  out->push_back(static_cast<uint8_t>(report.bit));
}

bool DecodeBitReport(const std::vector<uint8_t>& buffer, size_t* offset,
                     BitReport* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset > buffer.size() ||
      buffer.size() - *offset < kBitReportWireSize) {
    return false;
  }
  size_t cursor = *offset;
  uint64_t client_id = 0;
  uint8_t bit_index = 0;
  uint8_t bit = 0;
  if (!bytes::GetUint64(buffer, &cursor, &client_id) ||
      !bytes::GetByte(buffer, &cursor, &bit_index) ||
      !bytes::GetByte(buffer, &cursor, &bit)) {
    return false;
  }
  if (bit > 1) return false;  // malformed: the private payload is one bit
  out->client_id = static_cast<int64_t>(client_id);
  out->bit_index = bit_index;
  out->bit = bit;
  *offset = cursor;
  return true;
}

}  // namespace bitpush
