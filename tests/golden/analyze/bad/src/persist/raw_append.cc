// Bad: a raw codeword bit is appended to the write-ahead journal with no
// perturbation first. The journal outlives the process, so it is a
// disclosure sink like the wire.
#include <cstdint>
#include <vector>

namespace bitpush {

bool JournalRawBit(JournalWriter& journal, uint64_t word, int index) {
  const std::vector<uint8_t> payload = {FixedPointCodec::Bit(word, index)};
  return journal.Append(JournalRecordType::kReportAccepted, payload);
}

}  // namespace bitpush
