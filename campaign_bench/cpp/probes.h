// The handshake stack (quic/tls/crypto) cannot be split from outside
// while a campaign runs, so the traced run times its public functions
// directly, on connection IDs derived from the workload's own targets.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.h"

namespace bench {

struct ProbeResult {
  double initial_keys_us = 0;       // quic::PacketProtector::for_initial
  double hkdf_expand_label_ns = 0;  // crypto::hkdf_expand_label, 16 bytes
  double hmac_sha256_ns = 0;        // crypto::hmac_sha256, 32-byte input
  double aead_seal_1200_ns = 0;     // Aes128Gcm::seal_append, 1200 bytes
  double packet_roundtrip_ns = 0;   // protect_into + unprotect_into
};

/// Median over rounds of the mean per-call time over `dcids`. Records
/// one span per probe round under a "bench.probes" root in `log`.
/// Throws std::runtime_error if a protected packet does not open.
ProbeResult run_probes(const std::vector<std::vector<uint8_t>>& dcids,
                       SpanLog& log);

}  // namespace bench
