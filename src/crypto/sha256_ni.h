// SHA-256 compression on the x86 SHA extensions (SHA-NI), compiled in
// its own translation unit with per-file ISA flags (-msha -msse4.1
// -mssse3; see src/crypto/CMakeLists.txt), the same arrangement as
// crypto/aesni.cpp. crypto/sha256.cpp picks this kernel per hasher, at
// construction, and only when crypto/cpu.cpp reports the SHA, SSSE3
// and SSE4.1 bits.
//
// The declaration exists on every platform; the definition is only
// compiled when CMake detects the ISA flags (QREPRO_HAVE_SHANI), and
// callers gate on that define -- never call it unless
// sha256_kernel_available(Sha256Kernel::kShaNi) is true.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace crypto {

/// FIPS 180-4 round constants K0..K63 (defined in crypto/sha256.cpp).
extern const std::array<uint32_t, 64> kSha256RoundConstants;

namespace shani {

/// Runs the compression function over `nblocks` consecutive 64-byte
/// blocks, updating `state` (H0..H7) in place. Identical results to
/// the portable kernel in crypto/sha256.cpp.
void compress(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

}  // namespace shani
}  // namespace crypto
