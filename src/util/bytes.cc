#include "util/bytes.h"

#include <array>
#include <bit>

#include "util/check.h"

namespace bitpush {
namespace bytes {

void PutByte(uint8_t value, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  out->push_back(value);
}

void PutUint32(uint32_t value, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<uint8_t>(value >> shift));
  }
}

void PutUint64(uint64_t value, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<uint8_t>(value >> shift));
  }
}

void PutInt64(int64_t value, std::vector<uint8_t>* out) {
  PutUint64(static_cast<uint64_t>(value), out);
}

void PutDouble(double value, std::vector<uint8_t>* out) {
  PutUint64(std::bit_cast<uint64_t>(value), out);
}

void PutString(const std::string& value, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  PutUint32(static_cast<uint32_t>(value.size()), out);
  out->insert(out->end(), value.begin(), value.end());
}

void PutInt64Vector(const std::vector<int64_t>& values,
                    std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  PutUint32(static_cast<uint32_t>(values.size()), out);
  for (const int64_t value : values) PutInt64(value, out);
}

void PutDoubleVector(const std::vector<double>& values,
                     std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  PutUint32(static_cast<uint32_t>(values.size()), out);
  for (const double value : values) PutDouble(value, out);
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

std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Extend(0, data, size);
}

uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = MakeCrc32Table();
  crc ^= 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ data[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace bytes
}  // namespace bitpush
