// The scalar fallback kernel: the portable implementations compiled with
// the project's baseline flags. This is the reference every SIMD kernel is
// differentially tested against, and the kernel ActiveKernel() returns
// under BITPUSH_SIMD=OFF or ScopedForceScalar.

#include "kernels/kernel_ops_inl.h"
#include "kernels/kernels.h"

namespace bitpush {
namespace kernels {

const KernelOps& ScalarKernel() {
  static constexpr KernelOps kOps = {
      "scalar",
      portable::EncodeCodewords,
      portable::BuildPlanes,
      portable::XorWords,
      portable::XorMaskedWords,
      portable::PopcountWords,
      portable::PopcountAndWords,
      portable::AddWords,
      portable::ReduceAddWords,
      portable::Crc32Table,
  };
  return kOps;
}

}  // namespace kernels
}  // namespace bitpush
