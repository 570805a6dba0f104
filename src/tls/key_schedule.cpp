#include "tls/key_schedule.h"

#include <stdexcept>

namespace tls {

namespace {

// Constants of the SHA-256 suites' schedule, keyed once per process.
const crypto::Sha256Digest& empty_hash() {
  static const crypto::Sha256Digest kEmptyHash = crypto::Sha256::hash({});
  return kEmptyHash;
}

const std::array<uint8_t, crypto::kSha256DigestSize> kZeros{};

// Derive-Secret(early_secret, "derived", "") with early_secret =
// Extract(salt=0, ikm=0^32), as the HMAC key (the salt) of the
// handshake-secret Extract. Without a PSK both are constants.
const crypto::HmacSha256& early_derived_key() {
  static const crypto::HmacSha256 kKey = [] {
    auto early = crypto::hkdf_extract({}, kZeros);
    return crypto::HmacSha256(crypto::hkdf_expand_label(
        early, "derived", empty_hash(), crypto::kSha256DigestSize));
  }();
  return kKey;
}

}  // namespace

TrafficKeys derive_traffic_keys(std::span<const uint8_t> traffic_secret,
                                KeyUsage usage) {
  const crypto::HmacSha256 secret(traffic_secret);
  TrafficKeys keys;
  if (usage == KeyUsage::kQuic) {
    keys.key = crypto::hkdf_expand_label(secret, "quic key", {}, 16);
    keys.iv = crypto::hkdf_expand_label(secret, "quic iv", {}, 12);
    keys.hp = crypto::hkdf_expand_label(secret, "quic hp", {}, 16);
  } else {
    keys.key = crypto::hkdf_expand_label(secret, "key", {}, 16);
    keys.iv = crypto::hkdf_expand_label(secret, "iv", {}, 12);
  }
  return keys;
}

KeySchedule::KeySchedule() = default;

void KeySchedule::add_message(std::span<const uint8_t> encoded) {
  transcript_.update(encoded);
}

crypto::Sha256Digest KeySchedule::snapshot() const {
  // Sha256 is cheap to copy; final() on the copy leaves ours running.
  crypto::Sha256 copy = transcript_;
  return copy.final();
}

crypto::Sha256Digest KeySchedule::transcript_hash() const { return snapshot(); }

void KeySchedule::derive_handshake_secrets(
    std::span<const uint8_t> shared_secret) {
  // handshake_secret = Extract(salt=derived, ikm=shared_secret)
  handshake_secret_.emplace(early_derived_key().mac(shared_secret));

  auto th = snapshot();
  client_hs_ = crypto::hkdf_expand_label(*handshake_secret_, "c hs traffic",
                                         th, crypto::kSha256DigestSize);
  server_hs_ = crypto::hkdf_expand_label(*handshake_secret_, "s hs traffic",
                                         th, crypto::kSha256DigestSize);
}

void KeySchedule::derive_application_secrets() {
  if (!handshake_secret_)
    throw std::logic_error(
        "derive_application_secrets before derive_handshake_secrets");
  auto derived = crypto::hkdf_expand_label(*handshake_secret_, "derived",
                                           empty_hash(),
                                           crypto::kSha256DigestSize);
  crypto::HmacSha256 master(crypto::hkdf_extract(derived, kZeros));

  auto th = snapshot();
  client_app_ = crypto::hkdf_expand_label(master, "c ap traffic", th,
                                          crypto::kSha256DigestSize);
  server_app_ = crypto::hkdf_expand_label(master, "s ap traffic", th,
                                          crypto::kSha256DigestSize);
}

std::vector<uint8_t> KeySchedule::finished_verify_data(
    std::span<const uint8_t> traffic_secret) const {
  auto finished_key = crypto::hkdf_expand_label(traffic_secret, "finished", {},
                                                crypto::kSha256DigestSize);
  auto th = snapshot();
  auto mac = crypto::hmac_sha256(finished_key, th);
  return {mac.begin(), mac.end()};
}

}  // namespace tls
