// Wire format for protocol messages.
//
// The deployment discussion (Section 5, "Communication costs") notes that
// the single private bit rides in a small packet alongside headers and the
// sampled bit index. This module defines the report packet: fixed-width
// little-endian encoding with explicit bounds-checked decoding, so the
// transport layer of an integration has a concrete, testable contract.
// The fault layer (federated/faults.cc) sends each corrupted or truncated
// report through it.

#ifndef BITPUSH_FEDERATED_WIRE_H_
#define BITPUSH_FEDERATED_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "federated/report.h"

namespace bitpush {

// Format version carried in the header of the shard tick frame
// (federated/shard/merge.h); the journal and the snapshot of src/persist/
// carry their own. Decoders reject any other value with a clean error
// rather than misparsing a frame laid out by a future (or corrupted)
// writer.
inline constexpr uint8_t kWireFormatVersion = 1;

// Serialized size (bytes) of one report.
inline constexpr size_t kBitReportWireSize = 8 + 1 + 1;

// Appends the report to `out`.
void EncodeBitReport(const BitReport& report, std::vector<uint8_t>* out);

// Decodes one report starting at `offset`; on success advances `*offset`
// past it and returns true. Returns false (leaving `*offset` and `*out`
// untouched) on truncated input or a bit value outside {0, 1}.
bool DecodeBitReport(const std::vector<uint8_t>& buffer, size_t* offset,
                     BitReport* out);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_WIRE_H_
