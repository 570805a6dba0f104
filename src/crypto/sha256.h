// SHA-256 (FIPS 180-4), implemented from scratch because no crypto
// library is available offline. Used by the TLS 1.3 transcript hash,
// HMAC/HKDF and hence the QUIC Initial key schedule (RFC 9001 5.2).
//
// The compression function has two kernels: the portable scalar one
// (the reference) and SHA-NI (crypto/sha256_ni.cpp). A hasher picks its
// kernel once, at construction, from the crypto backend selection in
// crypto/cpu.h: Backend::kPortable forces the portable kernel, every
// other backend uses SHA-NI where the CPU has it. Copies keep the
// kernel of the original. Both kernels give identical digests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace crypto {

inline constexpr size_t kSha256DigestSize = 32;
inline constexpr size_t kSha256BlockSize = 64;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

enum class Sha256Kernel {
  kPortable = 0,
  kShaNi = 1,
};

/// True when `kernel` is compiled into this binary and usable on this
/// CPU. The portable kernel is always available.
bool sha256_kernel_available(Sha256Kernel kernel);

/// The kernel a hasher constructed right now would use: portable when
/// resolve_backend() is Backend::kPortable or the CPU lacks SHA-NI,
/// SHA-NI otherwise.
Sha256Kernel resolve_sha256_kernel();

const char* sha256_kernel_name(Sha256Kernel kernel);

/// SHA-256 compressions run by the calling thread so far (both
/// kernels). Deterministic for a given input, so a change in the cost
/// of the key schedule shows up exactly, without a timer.
uint64_t sha256_compressions();

/// Incremental SHA-256. Typical use: update() any number of times, then
/// final(). The object can be reused after reset() (final() resets it).
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(std::span<const uint8_t> data);
  Sha256Digest final();

  /// The compression kernel this hasher resolved at construction.
  Sha256Kernel kernel() const;

  /// One-shot convenience.
  static Sha256Digest hash(std::span<const uint8_t> data);

 private:
  using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                              size_t nblocks);
  void compress(const uint8_t* blocks, size_t nblocks);

  CompressFn compress_;
  std::array<uint32_t, 8> state_{};
  std::array<uint8_t, kSha256BlockSize> block_{};
  uint64_t total_len_ = 0;
  size_t block_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104) under one key. Construction hashes the
/// padded key into the inner (ipad) and outer (opad) midstates, so each
/// MAC over a short message costs two compressions instead of four plus
/// the key setup. Copies are independent.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const uint8_t> key);

  Sha256Digest mac(std::span<const uint8_t> data) const;

  /// Multi-part MAC: update() the hasher begin() returns with the
  /// message, then pass it to finish().
  Sha256 begin() const { return inner_; }
  Sha256Digest finish(Sha256& inner) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA256 (RFC 2104); a one-shot HmacSha256.
Sha256Digest hmac_sha256(std::span<const uint8_t> key,
                         std::span<const uint8_t> data);

/// HKDF-Extract (RFC 5869).
Sha256Digest hkdf_extract(std::span<const uint8_t> salt,
                          std::span<const uint8_t> ikm);

/// HKDF-Expand (RFC 5869). `length` must be <= 255 * 32.
std::vector<uint8_t> hkdf_expand(std::span<const uint8_t> prk,
                                 std::span<const uint8_t> info, size_t length);
std::vector<uint8_t> hkdf_expand(const HmacSha256& prk,
                                 std::span<const uint8_t> info, size_t length);

/// HKDF-Expand-Label from TLS 1.3 (RFC 8446 section 7.1): label is
/// prefixed with "tls13 " on the wire. QUIC reuses this for its packet
/// protection labels ("quic key", "quic iv", "quic hp", ...). The
/// HmacSha256 overload reuses the secret's midstates across labels.
std::vector<uint8_t> hkdf_expand_label(std::span<const uint8_t> secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length);
std::vector<uint8_t> hkdf_expand_label(const HmacSha256& secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length);

}  // namespace crypto
