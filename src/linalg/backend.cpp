#include "linalg/backend.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "linalg/kernels_isa.hpp"

namespace blr::la {

namespace {

// The process-global tier. -1 = not yet detected; detected lazily on first
// use and reset by redetect_native_isa() (tests flip the environment and
// re-detect).
std::atomic<int> g_native_isa{-1};

std::string env_lower(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return {};
  std::string s(v);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool cpu_supports(NativeIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case NativeIsa::Portable: return true;
    case NativeIsa::Avx2: return __builtin_cpu_supports("avx2") != 0;
    case NativeIsa::Avx512: return __builtin_cpu_supports("avx512f") != 0;
    case NativeIsa::kCount: break;
  }
  return false;
#else
  return isa == NativeIsa::Portable;
#endif
}

/// BLR_NATIVE_ISA clamps the detected tier from above: "portable" forces the
/// baseline tier even on capable CPUs (the detection-fallback test path),
/// "avx2" rules out AVX-512, "auto"/unset allows everything.
NativeIsa isa_clamp_from_env() {
  const std::string v = env_lower("BLR_NATIVE_ISA");
  if (v.empty() || v == "auto") return NativeIsa::Avx512;
  if (v == "portable") return NativeIsa::Portable;
  if (v == "avx2") return NativeIsa::Avx2;
  if (v == "avx512") return NativeIsa::Avx512;
  throw Error("BLR_NATIVE_ISA: unrecognized value '" + v +
              "' (expected auto|portable|avx2|avx512)");
}

NativeIsa detect_native_isa() {
  const NativeIsa clamp = isa_clamp_from_env();
  for (NativeIsa isa : {NativeIsa::Avx512, NativeIsa::Avx2}) {
    if (static_cast<int>(isa) > static_cast<int>(clamp)) continue;
    if (native_isa_compiled(isa) && cpu_supports(isa)) return isa;
  }
  return NativeIsa::Portable;
}

} // namespace

const char* native_isa_name(NativeIsa isa) {
  switch (isa) {
    case NativeIsa::Portable: return "portable";
    case NativeIsa::Avx2: return "avx2";
    case NativeIsa::Avx512: return "avx512";
    case NativeIsa::kCount: break;
  }
  return "?";
}

bool native_isa_compiled(NativeIsa isa) {
  switch (isa) {
    case NativeIsa::Portable: return true;
    case NativeIsa::Avx2:
#if defined(BLR_HAVE_ISA_AVX2)
      return true;
#else
      return false;
#endif
    case NativeIsa::Avx512:
#if defined(BLR_HAVE_ISA_AVX512)
      return true;
#else
      return false;
#endif
    case NativeIsa::kCount: break;
  }
  return false;
}

bool native_isa_supported(NativeIsa isa) {
  return native_isa_compiled(isa) && cpu_supports(isa) &&
         static_cast<int>(isa) <= static_cast<int>(isa_clamp_from_env());
}

NativeIsa native_isa() {
  int v = g_native_isa.load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(detect_native_isa());
    g_native_isa.store(v, std::memory_order_release);
  }
  return static_cast<NativeIsa>(v);
}

void redetect_native_isa() {
  g_native_isa.store(-1, std::memory_order_release);
}

namespace detail {

const IsaKernels& native_kernels() {
  switch (native_isa()) {
#if defined(BLR_HAVE_ISA_AVX512)
    case NativeIsa::Avx512: return isa_avx512();
#endif
#if defined(BLR_HAVE_ISA_AVX2)
    case NativeIsa::Avx2: return isa_avx2();
#endif
    default: return isa_portable();
  }
}

} // namespace detail

} // namespace blr::la
