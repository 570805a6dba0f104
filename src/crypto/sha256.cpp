#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "crypto/cpu.h"
#include "crypto/sha256_ni.h"

namespace crypto {

const std::array<uint32_t, 64> kSha256RoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

thread_local uint64_t t_compressions = 0;

inline uint32_t rotr(uint32_t x, int n) { return x >> n | x << (32 - n); }

// The reference kernel: FIPS 180-4 section 6.2.2, one block at a time.
void compress_portable(uint32_t state[8], const uint8_t* p, size_t nblocks) {
  for (; nblocks > 0; --nblocks, p += kSha256BlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(p[4 * i]) << 24 |
             static_cast<uint32_t>(p[4 * i + 1]) << 16 |
             static_cast<uint32_t>(p[4 * i + 2]) << 8 | p[4 * i + 3];
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace

bool sha256_kernel_available(Sha256Kernel kernel) {
  switch (kernel) {
    case Sha256Kernel::kPortable:
      return true;
    case Sha256Kernel::kShaNi:
#ifdef QREPRO_HAVE_SHANI
      return cpu_features().sha;
#else
      return false;
#endif
  }
  return false;
}

Sha256Kernel resolve_sha256_kernel() {
  if (resolve_backend() != Backend::kPortable &&
      sha256_kernel_available(Sha256Kernel::kShaNi))
    return Sha256Kernel::kShaNi;
  return Sha256Kernel::kPortable;
}

const char* sha256_kernel_name(Sha256Kernel kernel) {
  switch (kernel) {
    case Sha256Kernel::kPortable: return "portable";
    case Sha256Kernel::kShaNi: return "shani";
  }
  return "unknown";
}

uint64_t sha256_compressions() { return t_compressions; }

Sha256::Sha256() : compress_(compress_portable) {
#ifdef QREPRO_HAVE_SHANI
  if (resolve_sha256_kernel() == Sha256Kernel::kShaNi)
    compress_ = shani::compress;
#endif
  reset();
}

Sha256Kernel Sha256::kernel() const {
  return compress_ == compress_portable ? Sha256Kernel::kPortable
                                        : Sha256Kernel::kShaNi;
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  block_len_ = 0;
}

void Sha256::compress(const uint8_t* blocks, size_t nblocks) {
  t_compressions += nblocks;
  compress_(state_.data(), blocks, nblocks);
}

void Sha256::update(std::span<const uint8_t> data) {
  if (data.empty()) return;  // an empty span's data() may be null
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (block_len_ > 0) {
    size_t take = std::min(n, kSha256BlockSize - block_len_);
    std::memcpy(block_.data() + block_len_, p, take);
    block_len_ += take;
    p += take;
    n -= take;
    if (block_len_ < kSha256BlockSize) return;
    compress(block_.data(), 1);
    block_len_ = 0;
  }
  if (size_t whole = n / kSha256BlockSize; whole > 0) {
    compress(p, whole);
    p += whole * kSha256BlockSize;
    n -= whole * kSha256BlockSize;
  }
  if (n > 0) {
    std::memcpy(block_.data(), p, n);
    block_len_ = n;
  }
}

Sha256Digest Sha256::final() {
  // Padding (FIPS 180-4 section 5.1.1): 0x80, zeros up to byte 56 of a
  // block, then the 64-bit big-endian bit length -- written straight
  // into the block buffer, spilling into a second block when fewer
  // than 9 bytes are left in the first.
  const uint64_t bit_len = total_len_ * 8;
  block_[block_len_++] = 0x80;
  if (block_len_ > kSha256BlockSize - 8) {
    std::memset(block_.data() + block_len_, 0,
                kSha256BlockSize - block_len_);
    compress(block_.data(), 1);
    block_len_ = 0;
  }
  std::memset(block_.data() + block_len_, 0,
              kSha256BlockSize - 8 - block_len_);
  for (int i = 0; i < 8; ++i)
    block_[kSha256BlockSize - 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  compress(block_.data(), 1);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Sha256Digest Sha256::hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.final();
}

HmacSha256::HmacSha256(std::span<const uint8_t> key) : inner_(), outer_(inner_) {
  std::array<uint8_t, kSha256BlockSize> pad{};
  if (key.size() > kSha256BlockSize) {
    inner_.update(key);
    auto digest = inner_.final();
    std::memcpy(pad.data(), digest.data(), digest.size());
  } else if (!key.empty()) {  // empty span has a null data() (UB in memcpy)
    std::memcpy(pad.data(), key.data(), key.size());
  }
  for (auto& b : pad) b ^= 0x36;
  inner_.update(pad);
  for (auto& b : pad) b ^= 0x36 ^ 0x5c;
  outer_.update(pad);
}

Sha256Digest HmacSha256::mac(std::span<const uint8_t> data) const {
  Sha256 inner = inner_;
  inner.update(data);
  return finish(inner);
}

Sha256Digest HmacSha256::finish(Sha256& inner) const {
  auto inner_digest = inner.final();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.final();
}

Sha256Digest hmac_sha256(std::span<const uint8_t> key,
                         std::span<const uint8_t> data) {
  return HmacSha256(key).mac(data);
}

Sha256Digest hkdf_extract(std::span<const uint8_t> salt,
                          std::span<const uint8_t> ikm) {
  return hmac_sha256(salt, ikm);
}

std::vector<uint8_t> hkdf_expand(std::span<const uint8_t> prk,
                                 std::span<const uint8_t> info, size_t length) {
  return hkdf_expand(HmacSha256(prk), info, length);
}

std::vector<uint8_t> hkdf_expand(const HmacSha256& prk,
                                 std::span<const uint8_t> info, size_t length) {
  if (length > 255 * kSha256DigestSize)
    throw std::invalid_argument("hkdf_expand: length too large");
  // T(i) = HMAC(PRK, T(i-1) | info | i), T(0) empty.
  std::vector<uint8_t> out(length);
  Sha256Digest t{};
  uint8_t counter = 1;
  for (size_t done = 0; done < length; done += kSha256DigestSize, ++counter) {
    Sha256 h = prk.begin();
    if (done > 0) h.update(t);
    h.update(info);
    h.update({&counter, 1});
    t = prk.finish(h);
    std::memcpy(out.data() + done, t.data(),
                std::min(kSha256DigestSize, length - done));
  }
  return out;
}

std::vector<uint8_t> hkdf_expand_label(std::span<const uint8_t> secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length) {
  return hkdf_expand_label(HmacSha256(secret), label, context, length);
}

std::vector<uint8_t> hkdf_expand_label(const HmacSha256& secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length) {
  // struct HkdfLabel { uint16 length; opaque label<7..255>; opaque context<0..255>; }
  constexpr std::string_view kPrefix = "tls13 ";
  if (kPrefix.size() + label.size() > 255 || context.size() > 255)
    throw std::invalid_argument("hkdf_expand_label: label or context too long");
  std::array<uint8_t, 2 + 1 + 255 + 1 + 255> info;
  size_t n = 0;
  info[n++] = static_cast<uint8_t>(length >> 8);
  info[n++] = static_cast<uint8_t>(length);
  info[n++] = static_cast<uint8_t>(kPrefix.size() + label.size());
  std::memcpy(info.data() + n, kPrefix.data(), kPrefix.size());
  n += kPrefix.size();
  if (!label.empty()) std::memcpy(info.data() + n, label.data(), label.size());
  n += label.size();
  info[n++] = static_cast<uint8_t>(context.size());
  if (!context.empty())
    std::memcpy(info.data() + n, context.data(), context.size());
  n += context.size();
  return hkdf_expand(secret, {info.data(), n}, length);
}

}  // namespace crypto
