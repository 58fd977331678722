#pragma once
// Runtime ISA dispatch for the V-stage kernels (similarity and observation).
//
// The translation units in src/vsense/kernels/ compile every variant with
// per-function target attributes (no global -march flags), and ActiveIsa()
// picks the widest ISA the running CPU supports — once, at first use. Every
// similarity kernel variant is arithmetic-identical to the scalar reference
// (DESIGN.md §12), and the observation kernel certifies its output against
// the exact scalar path (§18), so dispatch is a pure performance decision:
// images, features and match output never depend on the chosen ISA.
//
// EVM_KERNEL_ISA=scalar|avx2|avx512|neon|auto overrides the choice (used by
// the CI scalar leg and the equivalence tests); requesting an ISA the CPU
// lacks is an error, not a silent downgrade.

#include <optional>
#include <string>

namespace evm::kernels {

enum class Isa {
  kScalar,
  kAvx2,    // x86: AVX2 float kernels + SSE/AVX2 SAD (+ FMA Box-Muller)
  kAvx512,  // x86: AVX-512 F/DQ/BW dual-row float + 512-bit SAD
  kNeon,    // aarch64 (baseline there, so always supported)
};

/// Lowercase name as accepted by EVM_KERNEL_ISA.
[[nodiscard]] const char* IsaName(Isa isa) noexcept;

/// True when the running CPU can execute `isa`'s kernels.
[[nodiscard]] bool IsaSupported(Isa isa) noexcept;

/// Parses an EVM_KERNEL_ISA value. nullptr/""/"auto" -> nullopt (automatic
/// selection); unknown or unsupported-on-this-CPU names throw evm::Error.
[[nodiscard]] std::optional<Isa> ParseIsaOverride(const char* value);

/// The ISA the dispatched kernels run, resolved once on first call from
/// CPU capabilities and EVM_KERNEL_ISA.
[[nodiscard]] Isa ActiveIsa();

}  // namespace evm::kernels
