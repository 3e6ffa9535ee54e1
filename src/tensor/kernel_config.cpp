// Reads the unified runtime::Context and applies the CPU capability
// degrade.
#include "tensor/kernel_config.hpp"

#include <cstdio>
#include <mutex>

#include "tensor/gemm.hpp"

namespace dchag::tensor {

namespace {

/// Downgrades blocked/parallel to naive (one stderr warning per process)
/// when the blocked TU was compiled for SIMD this CPU lacks.
KernelConfig sanitize(KernelConfig cfg) {
  if (cfg.backend != KernelBackend::kNaive && !blocked_kernels_supported()) {
    // One informational line per process, phrased as what happens — the
    // non-naive backend may be nothing more than the built-in default,
    // so this must not read as a user misconfiguration.
    static std::once_flag warn_once;
    std::call_once(warn_once, [&] {
      std::fprintf(stderr,
                   "dchag: this CPU lacks the SIMD level the blocked "
                   "kernels were compiled for; running the naive kernel "
                   "backend instead of %s\n",
                   to_string(cfg.backend));
    });
    cfg.backend = KernelBackend::kNaive;
  }
  return cfg;
}

}  // namespace

KernelConfig kernel_config() {
  return sanitize(runtime::active_kernel_config());
}

bool blocked_kernels_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool ok = !gemm::compiled_with_avx2() ||
                         (__builtin_cpu_supports("avx2") &&
                          __builtin_cpu_supports("fma"));
#else
  static const bool ok = true;  // gemm.cpp builds generic off x86-64
#endif
  return ok;
}

}  // namespace dchag::tensor
