// Runtime crypto-backend dispatch: a one-time CPU feature probe plus a
// process-wide backend selection that Aes128/Aes128Gcm resolve once per
// context, and Sha256 once per hasher, at construction (never per call
// or per block -- the packet and key-derivation hot paths pay zero
// dispatch overhead in steady state).
//
// Backends:
//   kPortable        the original table-based scalar kernels, one
//                    counter block at a time. The byte-identity
//                    reference every other backend is diffed against.
//   kPortableBatched portable T-table AES with a round-interleaved
//                    4-block CTR kernel (ILP win on every ISA,
//                    including hosts with no AES instructions at all).
//   kAesni           AES-NI + PCLMULQDQ: hardware key schedule
//                    (AESKEYGENASSIST), pipelined AESENC CTR, GHASH
//                    via carry-less multiply. Compiled in its own
//                    translation unit with per-file ISA flags and only
//                    selected when CPUID reports both AES and PCLMUL.
//
// SHA-256 follows the same selection without a Backend value of its
// own (crypto/sha256.h): Backend::kPortable also forces the portable
// SHA-256 compression, and every other backend uses the SHA-NI kernel
// (crypto/sha256_ni.cpp) where CpuFeatures::sha is set. backend_name()
// therefore still names only the AES-GCM kernel.
//
// AES-GCM and SHA-256 are deterministic, so ciphertext, tags and
// digests are backend-invariant by construction: forcing any backend
// changes wall-clock only, never a single output byte (tests/test_crypto
// and the engine differential battery hold every backend to that).
//
// Selection order: API override (set_backend_override, the CLIs'
// --crypto-backend) > QREPRO_CRYPTO_BACKEND environment variable >
// best_backend() hardware probe. The environment variable is read once
// per process. Requesting an unavailable or unknown backend throws
// std::invalid_argument -- an A/B run that silently fell back to
// another backend would be measuring nothing.
#pragma once

#include <optional>
#include <string>

namespace crypto {

enum class Backend {
  kPortable = 0,
  kPortableBatched = 1,
  kAesni = 2,
};

/// Result of the one-time hardware probe (CPUID on x86-64, getauxval
/// on AArch64; all-false elsewhere). `aes`/`pclmul` report the x86
/// AES-NI and PCLMULQDQ bits or their AArch64 crypto-extension
/// equivalents (AES/PMULL). `sha` reports the x86 SHA extensions
/// (CPUID leaf 7 EBX bit 29) together with SSSE3 and SSE4.1, which the
/// SHA-NI kernel also needs; it is x86-only, as that kernel is.
struct CpuFeatures {
  bool aes = false;
  bool pclmul = false;
  bool sha = false;
};

/// Cached hardware probe; the first call runs CPUID/getauxval.
const CpuFeatures& cpu_features();

/// True when `backend` is both compiled into this binary and usable on
/// this CPU. The portable backends are always available.
bool backend_available(Backend backend);

/// The fastest available backend on this host.
Backend best_backend();

/// Parses "portable" / "portable_batched" / "aesni" / "auto" ("auto"
/// resolves to best_backend()). Throws std::invalid_argument for
/// unknown names or a named backend that is unavailable on this host.
Backend parse_backend(const std::string& name);

const char* backend_name(Backend backend);

/// Process-wide override consulted before the environment variable.
/// Thread-safe (the campaign engine's workers construct AEAD contexts
/// concurrently); pass nullopt to clear. Contexts constructed before
/// the change keep the backend they resolved at construction.
void set_backend_override(std::optional<Backend> backend);
std::optional<Backend> backend_override();

/// The backend a context constructed right now would use:
/// override > QREPRO_CRYPTO_BACKEND > best_backend(). Throws
/// std::invalid_argument when the environment names an unknown or
/// unavailable backend (loudly, on the first AEAD or SHA-256
/// construction, and again on every later one).
Backend resolve_backend();

/// RAII override for tests: forces `backend` for the scope's lifetime
/// and restores the previous override on destruction.
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(Backend backend)
      : previous_(backend_override()) {
    set_backend_override(backend);
  }
  ~ScopedBackendOverride() { set_backend_override(previous_); }
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

 private:
  std::optional<Backend> previous_;
};

}  // namespace crypto
