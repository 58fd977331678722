#include "vsense/kernels/dispatch.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace evm::kernels {
namespace {

bool CpuHasAvx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // FMA rides along for the observation kernel's polynomials; every AVX2
  // CPU shipped so far has it, but the check keeps the gate honest.
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

bool CpuHasAvx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // F for the float lanes, DQ for 512-bit andnot_ps, BW for the byte SAD.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 && CpuHasAvx2();
#else
  return false;
#endif
}

}  // namespace

const char* IsaName(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

bool IsaSupported(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return CpuHasAvx2();
    case Isa::kAvx512:
      return CpuHasAvx512();
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // Advanced SIMD is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

std::optional<Isa> ParseIsaOverride(const char* value) {
  if (value == nullptr) return std::nullopt;
  const std::string name(value);
  if (name.empty() || name == "auto") return std::nullopt;
  std::optional<Isa> isa;
  for (const Isa candidate :
       {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (name == IsaName(candidate)) isa = candidate;
  }
  // Validate, don't coerce: a typo or an ISA this CPU lacks must fail loudly
  // rather than silently benchmark the wrong kernel.
  EVM_CHECK_MSG(isa.has_value(),
                "EVM_KERNEL_ISA: unknown ISA '" + name +
                    "' (expected scalar|avx2|avx512|neon|auto)");
  EVM_CHECK_MSG(IsaSupported(*isa),
                "EVM_KERNEL_ISA: ISA '" + name + "' not supported by this CPU");
  return isa;
}

Isa ActiveIsa() {
  static const Isa active = [] {
    if (const auto forced = ParseIsaOverride(std::getenv("EVM_KERNEL_ISA"))) {
      return *forced;
    }
    if (IsaSupported(Isa::kAvx512)) return Isa::kAvx512;
    if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
    if (IsaSupported(Isa::kNeon)) return Isa::kNeon;
    return Isa::kScalar;
  }();
  return active;
}

}  // namespace evm::kernels
