// The table-driven CRC-32: the scalar kernel's crc32_extend, the path of
// the folding kernels for inputs too short to fold and for the tail of
// the ones they fold, and the reference they are tested against.

#include <array>
#include <cstddef>
#include <cstdint>

#include "kernels/kernel_ops_inl.h"
#include "util/bytes.h"

namespace bitpush {
namespace kernels {
namespace portable {

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

}  // namespace

uint32_t Crc32Table(uint32_t crc, const uint8_t* data, size_t size) {
  static const Crc32Tables kTables = MakeCrc32Tables();
  const auto& t = kTables;
  crc ^= 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = bytes::LoadUint32(data) ^ crc;
    const uint32_t hi = bytes::LoadUint32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  // A short record (a 26-byte campaign-tick frame) ends in a tail of up to
  // seven bytes: fold four of them in one step, as the high half above
  // does.
  if (size >= 4) {
    crc ^= bytes::LoadUint32(data);
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

}  // namespace portable
}  // namespace kernels
}  // namespace bitpush
