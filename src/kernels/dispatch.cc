// Runtime kernel selection: CPU feature detection, the BITPUSH_SIMD=OFF
// environment override, and the test-only scalar force switch.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kernels/kernel_ops_inl.h"
#include "kernels/kernels.h"

namespace bitpush {
namespace kernels {
namespace {

std::atomic<int> g_force_scalar{0};

// BITPUSH_SIMD=OFF / off / 0 disables runtime SIMD even when compiled in
// (mirrors the CMake option of the same name, which removes it at build
// time). Read once; the result is latched by DispatchedKernel().
bool SimdDisabledByEnv() {
  const char* value = std::getenv("BITPUSH_SIMD");
  if (value == nullptr) return false;
  return std::strcmp(value, "OFF") == 0 || std::strcmp(value, "off") == 0 ||
         std::strcmp(value, "0") == 0;
}

const KernelOps* DetectKernel() {
  if (SimdDisabledByEnv()) return &ScalarKernel();
#if defined(BITPUSH_SIMD_AVX2)
  // The AVX2 kernel's CRC folds with PCLMULQDQ, which every CPU with AVX2
  // has shipped with; both are checked all the same.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul")) {
    return &Avx2Kernel();
  }
#endif
#if defined(BITPUSH_SIMD_NEON)
  return &NeonKernel();
#endif
  return &ScalarKernel();
}

const KernelOps& DispatchedKernel() {
  static const KernelOps* const kernel = DetectKernel();
  return *kernel;
}

}  // namespace

const KernelOps& ActiveKernel() {
  if (g_force_scalar.load(std::memory_order_relaxed) > 0) {
    return ScalarKernel();
  }
  return DispatchedKernel();
}

bool SimdActive() { return &ActiveKernel() != &ScalarKernel(); }

ScopedForceScalar::ScopedForceScalar() {
  g_force_scalar.fetch_add(1, std::memory_order_relaxed);
}

ScopedForceScalar::~ScopedForceScalar() {
  g_force_scalar.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace kernels
}  // namespace bitpush
