// Shared byte-level encoding helpers and CRC32.
//
// One fixed-width little-endian vocabulary serves every serialized surface
// of the library: the network frames in federated/wire.h and the durable
// records of the persistence subsystem (src/persist/). Keeping the
// primitives in util/ lets core types (PrivacyMeter, BitHistogram) gain
// Encode/Decode without depending on the federated layer.
//
// Every Get* helper is bounds-checked and overflow-safe: on failure it
// returns false and leaves `*offset` and `*out` untouched, so decoders
// compose into all-or-nothing parses. Collection readers cap the declared
// element count against the bytes actually remaining, so a hostile length
// field cannot trigger a huge allocation.

#ifndef BITPUSH_UTIL_BYTES_H_
#define BITPUSH_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bitpush {
namespace bytes {

void PutByte(uint8_t value, std::vector<uint8_t>* out);
void PutUint32(uint32_t value, std::vector<uint8_t>* out);
void PutUint64(uint64_t value, std::vector<uint8_t>* out);
void PutInt64(int64_t value, std::vector<uint8_t>* out);
// Raw IEEE-754 bits; NaN payloads round-trip exactly. Callers that must
// reject non-finite values validate after GetDouble.
void PutDouble(double value, std::vector<uint8_t>* out);
// 4-byte length prefix + raw bytes.
void PutString(const std::string& value, std::vector<uint8_t>* out);
// 4-byte count prefix + fixed-width elements.
void PutInt64Vector(const std::vector<int64_t>& values,
                    std::vector<uint8_t>* out);
void PutDoubleVector(const std::vector<double>& values,
                     std::vector<uint8_t>* out);

bool GetByte(const std::vector<uint8_t>& buffer, size_t* offset,
             uint8_t* out);
bool GetUint32(const std::vector<uint8_t>& buffer, size_t* offset,
               uint32_t* out);
bool GetUint64(const std::vector<uint8_t>& buffer, size_t* offset,
               uint64_t* out);
bool GetInt64(const std::vector<uint8_t>& buffer, size_t* offset,
              int64_t* out);
bool GetDouble(const std::vector<uint8_t>& buffer, size_t* offset,
               double* out);
bool GetString(const std::vector<uint8_t>& buffer, size_t* offset,
               std::string* out);
bool GetInt64Vector(const std::vector<uint8_t>& buffer, size_t* offset,
                    std::vector<int64_t>* out);
bool GetDoubleVector(const std::vector<uint8_t>& buffer, size_t* offset,
                     std::vector<double>* out);

// CRC-32 (IEEE 802.3 polynomial, reflected), the integrity check on every
// persisted journal record and snapshot payload.
uint32_t Crc32(const uint8_t* data, size_t size);
uint32_t Crc32(const std::vector<uint8_t>& data);
// Continues `crc` over more bytes, so a CRC can cover data that is not
// contiguous: Crc32Extend(Crc32(a), b) == Crc32(a followed by b).
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size);

}  // namespace bytes
}  // namespace bitpush

#endif  // BITPUSH_UTIL_BYTES_H_
