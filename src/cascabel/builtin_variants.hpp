// Built-in expert task variants (paper Figure 1: "Expert programmers
// provide implementation variants for specific platforms").
//
// The paper's translator selected GotoBLAS- and CuBLAS-backed DGEMM
// variants from its repository; this module provides our equivalents on
// top of the kernels library, plus vector-add variants for the Listing 3/4
// example. Each variant is both registered as a source-level TaskVariant
// (so pre-selection sees its target platforms) and bound to an executable
// implementation.
//
// Interfaces:
//   Idgemm  (C: readwrite, A: read, B: read)  — C += A * B
//     dgemm_seq    x86   CPU          (the sequential fall-back, scalar)
//     dgemm_tiled  x86   CPU          (SIMD fall-back)
//     dgemm_smp    smp   CPU          (GotoBLAS stand-in, SIMD per core)
//     dgemm_cublas cuda  Accelerator  (simulated CuBLAS, SIMD on the host)
//   Ivecadd (A: readwrite, B: read)           — A += B
//     vecadd_seq   x86   CPU
//     vecadd_smp   smp   CPU
//     vecadd_ocl   opencl Accelerator
#pragma once

#include "cascabel/repository.hpp"

namespace cascabel {

/// Register all built-in variants into `repo` (idempotent per repository:
/// duplicate names are rejected by the repository).
void register_builtin_variants(TaskRepository& repo);

}  // namespace cascabel
