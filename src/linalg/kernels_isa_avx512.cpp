// AVX-512 kernel tier. This TU (and only this TU) is compiled with
// -mavx512f -mavx512dq -mavx512vl -mavx512bw -ffp-contract=off (see
// src/linalg/CMakeLists.txt); it is selected at runtime by CPUID and must
// never be entered on a CPU without AVX-512F.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "linalg/kernels_isa.hpp"

#define BLR_ISA_ACCESSOR isa_avx512
#define BLR_ISA_NAME "avx512"
#define BLR_ISA_ENUM NativeIsa::Avx512
#define BLR_ISA_MR blr::la::detail::kWideMR
#include "linalg/kernels_isa_body.inc"
