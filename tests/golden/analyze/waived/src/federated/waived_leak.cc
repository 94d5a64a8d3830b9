// Waived: this calibration path discloses synthetic codewords only; the
// privacy-taint waiver is file-scoped because the taint and the sink are
// far apart.
// bitpush-analyze: allow(privacy-taint): calibration fixture discloses synthetic codewords, never client values
#include <vector>

namespace bitpush {

void FlushCalibration(const FixedPointCodec& codec, double synthetic,
                      std::vector<uint8_t>* out) {
  BitReport report;
  report.bit = codec.Encode(synthetic) & 1;
  EncodeBitReport(report, out);
}

}  // namespace bitpush
