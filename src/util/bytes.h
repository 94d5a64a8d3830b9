// Shared byte-level encoding helpers and CRC32.
//
// One fixed-width little-endian vocabulary serves every serialized surface
// of the library: the network frames in federated/wire.h and the durable
// records of the persistence subsystem (src/persist/). Keeping the
// primitives in util/ lets core types (PrivacyMeter, BitHistogram) gain
// Encode/Decode without depending on the federated layer.
//
// Every Put* appender grows its vector once per field (a vector field
// once in all) and writes each value with one little-endian store. The
// appenders stay out of line: inlined into a caller, the vector growth can
// raise GCC 12's false -Wstringop-overflow, which -Werror turns into a
// build failure. An encoder that knows its size up front sizes its buffer
// once and fills it with the Store* functions below, as the journal's
// charge payloads and the meter ledger's snapshot blob are written.
//
// Every Get* helper is bounds-checked and overflow-safe: on failure it
// returns false and leaves `*offset` and `*out` untouched, so decoders
// compose into all-or-nothing parses. Collection readers cap the declared
// element count against the bytes actually remaining, so a hostile length
// field cannot trigger a huge allocation. The readers take a span, so a
// decoder can parse a record in place in the file image it was read into;
// a vector converts to one. A decoder with a hot loop checks the bounds of
// a whole entry once and reads its fields with the inline Load* functions.

#ifndef BITPUSH_UTIL_BYTES_H_
#define BITPUSH_UTIL_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
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
void PutUint32Vector(const std::vector<uint32_t>& values,
                     std::vector<uint8_t>* out);
void PutInt64Vector(const std::vector<int64_t>& values,
                    std::vector<uint8_t>* out);
void PutUint64Vector(const std::vector<uint64_t>& values,
                     std::vector<uint8_t>* out);

// Little-endian stores into memory the caller has sized, each returning
// the address just past the field it wrote. The byte-wise stores compile
// to one unaligned store on little-endian targets.
inline uint8_t* StoreUint32(uint32_t value, uint8_t* at) {
  at[0] = static_cast<uint8_t>(value);
  at[1] = static_cast<uint8_t>(value >> 8);
  at[2] = static_cast<uint8_t>(value >> 16);
  at[3] = static_cast<uint8_t>(value >> 24);
  return at + 4;
}
inline uint8_t* StoreUint64(uint64_t value, uint8_t* at) {
  StoreUint32(static_cast<uint32_t>(value), at);
  return StoreUint32(static_cast<uint32_t>(value >> 32), at + 4);
}
inline uint8_t* StoreInt64(int64_t value, uint8_t* at) {
  return StoreUint64(static_cast<uint64_t>(value), at);
}
inline uint8_t* StoreDouble(double value, uint8_t* at) {
  return StoreUint64(std::bit_cast<uint64_t>(value), at);
}

// The matching little-endian loads from memory the caller has
// bounds-checked; each compiles to one unaligned load on little-endian
// targets.
inline uint32_t LoadUint32(const uint8_t* at) {
  return static_cast<uint32_t>(at[0]) | (static_cast<uint32_t>(at[1]) << 8) |
         (static_cast<uint32_t>(at[2]) << 16) |
         (static_cast<uint32_t>(at[3]) << 24);
}
inline uint64_t LoadUint64(const uint8_t* at) {
  return static_cast<uint64_t>(LoadUint32(at)) |
         (static_cast<uint64_t>(LoadUint32(at + 4)) << 32);
}
inline int64_t LoadInt64(const uint8_t* at) {
  return static_cast<int64_t>(LoadUint64(at));
}
inline double LoadDouble(const uint8_t* at) {
  return std::bit_cast<double>(LoadUint64(at));
}

bool GetByte(std::span<const uint8_t> buffer, size_t* offset,
             uint8_t* out);
bool GetUint32(std::span<const uint8_t> buffer, size_t* offset,
               uint32_t* out);
bool GetUint64(std::span<const uint8_t> buffer, size_t* offset,
               uint64_t* out);
bool GetInt64(std::span<const uint8_t> buffer, size_t* offset,
              int64_t* out);
bool GetDouble(std::span<const uint8_t> buffer, size_t* offset,
               double* out);
bool GetString(std::span<const uint8_t> buffer, size_t* offset,
               std::string* out);
bool GetUint32Vector(std::span<const uint8_t> buffer, size_t* offset,
                     std::vector<uint32_t>* out);
bool GetInt64Vector(std::span<const uint8_t> buffer, size_t* offset,
                    std::vector<int64_t>* out);
bool GetUint64Vector(std::span<const uint8_t> buffer, size_t* offset,
                     std::vector<uint64_t>* out);

// CRC-32 (IEEE 802.3 polynomial, reflected), the integrity check on every
// persisted journal record and snapshot payload. The two functions below
// are its only entry points; both run the active kernel's crc32_extend op
// (kernels/kernels.h), which folds long inputs with carry-less multiplies
// where the CPU has them and is the slicing-by-8 table otherwise.
uint32_t Crc32(const uint8_t* data, size_t size);
// Continues `crc` over more bytes, so a CRC can cover data that is not
// contiguous: Crc32Extend(Crc32(a), b) == Crc32(a followed by b).
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size);

}  // namespace bytes
}  // namespace bitpush

#endif  // BITPUSH_UTIL_BYTES_H_
