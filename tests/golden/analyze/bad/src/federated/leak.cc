// Bad: a raw codeword bit reaches a wire encoder with no perturbation
// between the encode (source) and the report serialization (sink).
#include <vector>

namespace bitpush {

void FlushRawReport(const FixedPointCodec& codec, double value,
                    std::vector<uint8_t>* out) {
  BitReport report;
  report.bit = codec.Encode(value) & 1;
  EncodeBitReport(report, out);
}

}  // namespace bitpush
