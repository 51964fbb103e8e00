#pragma once

namespace blr::la {

// ---- Kernel tiers (DESIGN.md §14) ----------------------------------------
//
// The gemm/trsm/syrk-shaped entry points in la:: run one engine: the
// BLIS-style packed, register-blocked kernels. Their microkernel is compiled
// once per ISA tier (portable / AVX2 / AVX-512) in dedicated translation
// units with per-file arch flags, and the best tier the CPU actually
// supports is picked by CPUID at runtime — one portable binary carries all
// tiers (no -march=native whole-binary gamble, no illegal-instruction risk
// on deployment).
//
// Determinism contract: every tier produces bit-identical results for the
// same call, and so do the plain loop nests of gemm_unpacked. The loop
// nests, the packed microkernel and the SIMD translation units share one
// canonical per-element accumulation order, and the ISA TUs are built with
// -ffp-contract=off so vector lanes round exactly like the scalar code.
// This is what lets the tests compare tiers with memcmp, not tolerances.

/// ISA tier of the packed microkernel.
enum class NativeIsa : int { Portable = 0, Avx2, Avx512, kCount };

const char* native_isa_name(NativeIsa isa);

/// The ISA tier the la:: kernels dispatch to on this machine: the best tier
/// that is compiled in, supported by CPUID, and not clamped away by the
/// BLR_NATIVE_ISA environment variable ("auto" | "portable" | "avx2" |
/// "avx512"). Cached after the first call; see redetect_native_isa().
/// Throws blr::Error on an unrecognized BLR_NATIVE_ISA value.
NativeIsa native_isa();

/// True when the tier's translation unit was compiled into this binary
/// (Portable always is; AVX2/AVX-512 depend on BLR_NATIVE and compiler
/// support at build time).
bool native_isa_compiled(NativeIsa isa);

/// True when the tier is compiled in, the CPU supports it, and the
/// BLR_NATIVE_ISA clamp allows it.
bool native_isa_supported(NativeIsa isa);

/// Drop the cached tier and re-read CPUID and the environment (tests use
/// this to run every tier via setenv("BLR_NATIVE_ISA", ...)).
void redetect_native_isa();

} // namespace blr::la
