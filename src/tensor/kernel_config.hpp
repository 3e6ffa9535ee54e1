// Runtime-dispatched kernel backend selection. Every hot tensor kernel
// (ops.cpp) consults kernel_config() and picks one of three
// implementations:
//
//   kNaive    — the original scalar triple-loop kernels. Kept forever as
//               the bit-exactness oracle for parity tests.
//   kBlocked  — cache-blocked single-threaded kernels (MC/KC/NC tiled
//               matmul with a packed micro-kernel; gemm.cpp).
//   kParallel — kBlocked plus ThreadPool::parallel_for fan-out. Produces
//               bit-identical results to kBlocked at any thread count.
//
// The selection itself lives in the unified runtime::Context
// (runtime/context.hpp): KernelConfig/KernelBackend are aliases of the
// runtime types, kernel_config() reads the calling thread's effective
// context (innermost runtime::Scope, else the process default, which
// Context::from_env() initialises from DCHAG_KERNEL / DCHAG_THREADS).
#pragma once

#include <string>

#include "runtime/context.hpp"
#include "tensor/shape.hpp"

namespace dchag::tensor {

using KernelBackend = runtime::KernelBackend;
using KernelConfig = runtime::KernelConfig;

// parse_backend / to_string kept reachable under their historical names.
using runtime::parse_backend;
using runtime::to_string;

/// Effective config for the calling thread — the kernels field of the
/// effective runtime::Context — degraded to kNaive (one-time stderr
/// warning) when this CPU lacks the SIMD level the blocked kernels were
/// compiled for.
[[nodiscard]] KernelConfig kernel_config();

/// False when gemm.cpp was compiled with SIMD flags this CPU lacks.
/// Every blocked/parallel request then degrades to kNaive at dispatch —
/// never a fault, never an exception, so exotic hosts still run.
[[nodiscard]] bool blocked_kernels_supported();

}  // namespace dchag::tensor
