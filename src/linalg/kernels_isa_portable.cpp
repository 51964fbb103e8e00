// Baseline kernel tier: the kernel bodies compiled with the
// project's default flags only, so this tier runs on any CPU the binary
// does. Always built — tier detection can fall back to it everywhere.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "linalg/kernels_isa.hpp"

#define BLR_ISA_ACCESSOR isa_portable
#define BLR_ISA_NAME "portable"
#define BLR_ISA_ENUM NativeIsa::Portable
#define BLR_ISA_MR blr::la::detail::kMR
#include "linalg/kernels_isa_body.inc"
