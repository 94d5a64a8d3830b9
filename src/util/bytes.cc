#include "util/bytes.h"

#include <bit>
#include <cstring>
#include <utility>

#include "kernels/kernels.h"
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

void PutUint32Vector(const std::vector<uint32_t>& values,
                     std::vector<uint8_t>* out) {
  uint8_t* at = StoreUint32(static_cast<uint32_t>(values.size()),
                            Grow(4 + 4 * values.size(), out));
  for (const uint32_t value : values) at = StoreUint32(value, at);
}

void PutInt64Vector(const std::vector<int64_t>& values,
                    std::vector<uint8_t>* out) {
  uint8_t* at = StoreUint32(static_cast<uint32_t>(values.size()),
                            Grow(4 + 8 * values.size(), out));
  for (const int64_t value : values) at = StoreInt64(value, at);
}

void PutUint64Vector(const std::vector<uint64_t>& values,
                     std::vector<uint8_t>* out) {
  uint8_t* at = StoreUint32(static_cast<uint32_t>(values.size()),
                            Grow(4 + 8 * values.size(), out));
  for (const uint64_t value : values) at = StoreUint64(value, at);
}

bool GetByte(std::span<const uint8_t> buffer, size_t* offset,
             uint8_t* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset >= buffer.size()) return false;
  *out = buffer[*offset];
  *offset += 1;
  return true;
}

bool GetUint32(std::span<const uint8_t> buffer, size_t* offset,
               uint32_t* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset > buffer.size() || buffer.size() - *offset < 4) return false;
  *out = LoadUint32(buffer.data() + *offset);
  *offset += 4;
  return true;
}

bool GetUint64(std::span<const uint8_t> buffer, size_t* offset,
               uint64_t* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  if (*offset > buffer.size() || buffer.size() - *offset < 8) return false;
  *out = LoadUint64(buffer.data() + *offset);
  *offset += 8;
  return true;
}

bool GetInt64(std::span<const uint8_t> buffer, size_t* offset,
              int64_t* out) {
  BITPUSH_CHECK(out != nullptr);
  uint64_t raw = 0;
  if (!GetUint64(buffer, offset, &raw)) return false;
  *out = static_cast<int64_t>(raw);
  return true;
}

bool GetDouble(std::span<const uint8_t> buffer, size_t* offset,
               double* out) {
  BITPUSH_CHECK(out != nullptr);
  uint64_t raw = 0;
  if (!GetUint64(buffer, offset, &raw)) return false;
  *out = std::bit_cast<double>(raw);
  return true;
}

bool GetString(std::span<const uint8_t> buffer, size_t* offset,
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

bool GetUint32Vector(std::span<const uint8_t> buffer, size_t* offset,
                     std::vector<uint32_t>* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  uint32_t count = 0;
  if (!GetUint32(buffer, &cursor, &count)) return false;
  if ((buffer.size() - cursor) / 4 < static_cast<size_t>(count)) return false;
  std::vector<uint32_t> values(count);
  for (uint32_t& value : values) {
    value = LoadUint32(buffer.data() + cursor);
    cursor += 4;
  }
  *out = std::move(values);
  *offset = cursor;
  return true;
}

bool GetInt64Vector(std::span<const uint8_t> buffer, size_t* offset,
                    std::vector<int64_t>* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  uint32_t count = 0;
  if (!GetUint32(buffer, &cursor, &count)) return false;
  if ((buffer.size() - cursor) / 8 < static_cast<size_t>(count)) return false;
  std::vector<int64_t> values(count);
  for (int64_t& value : values) {
    value = LoadInt64(buffer.data() + cursor);
    cursor += 8;
  }
  *out = std::move(values);
  *offset = cursor;
  return true;
}

bool GetUint64Vector(std::span<const uint8_t> buffer, size_t* offset,
                     std::vector<uint64_t>* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  uint32_t count = 0;
  if (!GetUint32(buffer, &cursor, &count)) return false;
  if ((buffer.size() - cursor) / 8 < static_cast<size_t>(count)) return false;
  std::vector<uint64_t> values(count);
  for (uint64_t& value : values) {
    value = LoadUint64(buffer.data() + cursor);
    cursor += 8;
  }
  *out = std::move(values);
  *offset = cursor;
  return true;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Extend(0, data, size);
}

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  return kernels::ActiveKernel().crc32_extend(crc, data, size);
}

}  // namespace bytes
}  // namespace bitpush
