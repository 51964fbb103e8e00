// AVX2 kernel tier. This TU (and only this TU) is compiled with
// -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt); it is selected
// at runtime by CPUID and must never be entered on a CPU without AVX2.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "linalg/kernels_isa.hpp"

#define BLR_ISA_ACCESSOR isa_avx2
#define BLR_ISA_NAME "avx2"
#define BLR_ISA_ENUM NativeIsa::Avx2
#define BLR_ISA_MR blr::la::detail::kMR
#include "linalg/kernels_isa_body.inc"
