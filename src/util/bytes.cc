#include "util/bytes.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/check.h"

namespace bitpush {
namespace bytes {

namespace {

// Grows `out` by `size` bytes and returns the first of them.
uint8_t* Grow(size_t size, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  const size_t at = out->size();
  out->resize(at + size);
  return out->data() + at;
}

}  // namespace

void PutByte(uint8_t value, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  out->push_back(value);
}

void PutUint32(uint32_t value, std::vector<uint8_t>* out) {
  StoreUint32(value, Grow(4, out));
}

void PutUint64(uint64_t value, std::vector<uint8_t>* out) {
  StoreUint64(value, Grow(8, out));
}

void PutInt64(int64_t value, std::vector<uint8_t>* out) {
  StoreInt64(value, Grow(8, out));
}

void PutDouble(double value, std::vector<uint8_t>* out) {
  StoreDouble(value, Grow(8, out));
}

void PutString(const std::string& value, std::vector<uint8_t>* out) {
  uint8_t* at = StoreUint32(static_cast<uint32_t>(value.size()),
                            Grow(4 + value.size(), out));
  if (!value.empty()) std::memcpy(at, value.data(), value.size());
}

void PutInt64Vector(const std::vector<int64_t>& values,
                    std::vector<uint8_t>* out) {
  uint8_t* at = StoreUint32(static_cast<uint32_t>(values.size()),
                            Grow(4 + 8 * values.size(), out));
  for (const int64_t value : values) at = StoreInt64(value, at);
}

void PutDoubleVector(const std::vector<double>& values,
                     std::vector<uint8_t>* out) {
  uint8_t* at = StoreUint32(static_cast<uint32_t>(values.size()),
                            Grow(4 + 8 * values.size(), out));
  for (const double value : values) at = StoreDouble(value, at);
}

bool GetByte(const std::vector<uint8_t>& buffer, size_t* offset,
             uint8_t* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset >= buffer.size()) return false;
  *out = buffer[*offset];
  *offset += 1;
  return true;
}

bool GetUint32(const std::vector<uint8_t>& buffer, size_t* offset,
               uint32_t* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset > buffer.size() || buffer.size() - *offset < 4) return false;
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(buffer[*offset + static_cast<size_t>(i)])
             << (8 * i);
  }
  *offset += 4;
  *out = value;
  return true;
}

bool GetUint64(const std::vector<uint8_t>& buffer, size_t* offset,
               uint64_t* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset > buffer.size() || buffer.size() - *offset < 8) return false;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(buffer[*offset + static_cast<size_t>(i)])
             << (8 * i);
  }
  *offset += 8;
  *out = value;
  return true;
}

bool GetInt64(const std::vector<uint8_t>& buffer, size_t* offset,
              int64_t* out) {
  BITPUSH_CHECK(out != nullptr);
  uint64_t raw = 0;
  if (!GetUint64(buffer, offset, &raw)) return false;
  *out = static_cast<int64_t>(raw);
  return true;
}

bool GetDouble(const std::vector<uint8_t>& buffer, size_t* offset,
               double* out) {
  BITPUSH_CHECK(out != nullptr);
  uint64_t raw = 0;
  if (!GetUint64(buffer, offset, &raw)) return false;
  *out = std::bit_cast<double>(raw);
  return true;
}

bool GetString(const std::vector<uint8_t>& buffer, size_t* offset,
               std::string* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  uint32_t length = 0;
  if (!GetUint32(buffer, &cursor, &length)) return false;
  if (buffer.size() - cursor < static_cast<size_t>(length)) return false;
  out->assign(buffer.begin() + static_cast<ptrdiff_t>(cursor),
              buffer.begin() + static_cast<ptrdiff_t>(cursor + length));
  *offset = cursor + length;
  return true;
}

bool GetInt64Vector(const std::vector<uint8_t>& buffer, size_t* offset,
                    std::vector<int64_t>* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  uint32_t count = 0;
  if (!GetUint32(buffer, &cursor, &count)) return false;
  if ((buffer.size() - cursor) / 8 < static_cast<size_t>(count)) return false;
  std::vector<int64_t> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int64_t value = 0;
    if (!GetInt64(buffer, &cursor, &value)) return false;
    values.push_back(value);
  }
  *out = std::move(values);
  *offset = cursor;
  return true;
}

bool GetDoubleVector(const std::vector<uint8_t>& buffer, size_t* offset,
                     std::vector<double>* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  uint32_t count = 0;
  if (!GetUint32(buffer, &cursor, &count)) return false;
  if ((buffer.size() - cursor) / 8 < static_cast<size_t>(count)) return false;
  std::vector<double> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    double value = 0.0;
    if (!GetDouble(buffer, &cursor, &value)) return false;
    values.push_back(value);
  }
  *out = std::move(values);
  *offset = cursor;
  return true;
}

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: table[0]
// is the classic byte-at-a-time table, and table[k][b] is the CRC of byte
// b followed by k zero bytes, so one step folds eight input bytes with
// eight independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

// Little-endian load, whatever the host order; compilers fold it into one
// unaligned load on little-endian targets.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Extend(0, data, size);
}

uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  static const Crc32Tables kTables = MakeCrc32Tables();
  const auto& t = kTables;
  crc ^= 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  // A short record (a 39-byte charge frame) ends in a tail of up to seven
  // bytes: fold four of them in one step, as the high half above does.
  if (size >= 4) {
    crc ^= LoadLe32(data);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    data += 4;
    size -= 4;
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace bytes
}  // namespace bitpush
