#include "probes.h"

#include <stdexcept>

#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "quic/packet.h"
#include "quic/version.h"
#include "stats.h"

namespace bench {
namespace {

constexpr int kRounds = 15;
constexpr quic::Version kVersion = quic::kDraft29;

// Keeps results observable so the timed calls are not optimised away.
volatile uint64_t g_sink = 0;

template <typename Call>
double probe(const char* name, size_t calls, SpanLog& log, Call&& call) {
  std::vector<double> per_call_ns;
  for (int round = 0; round < kRounds; ++round) {
    uint64_t t0 = now_ns();
    for (size_t i = 0; i < calls; ++i) call(i);
    uint64_t t1 = now_ns();
    log.add({name, t0, t1, -1, kNoTarget, 0});
    per_call_ns.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(calls));
  }
  return median(per_call_ns);
}

}  // namespace

ProbeResult run_probes(const std::vector<std::vector<uint8_t>>& dcids,
                       SpanLog& log) {
  const size_t n = dcids.size();
  std::vector<std::vector<uint8_t>> secrets;
  for (const auto& dcid : dcids)
    secrets.push_back(quic::derive_initial_secrets(kVersion, dcid).client);
  std::vector<uint8_t> plaintext(1200);
  for (size_t i = 0; i < plaintext.size(); ++i)
    plaintext[i] = dcids[i % n][i % dcids[i % n].size()];
  const std::vector<uint8_t> aad(plaintext.begin(), plaintext.begin() + 20);

  const size_t root = log.add({"bench.probes", now_ns(), 0, -1, kNoTarget, 0});
  SpanLog spans;
  ProbeResult r;
  r.initial_keys_us =
      probe("crypto.initial_keys", n, spans, [&](size_t i) {
        auto protector =
            quic::PacketProtector::for_initial(kVersion, dcids[i], false);
        g_sink = g_sink + reinterpret_cast<uintptr_t>(&protector);
      }) /
      1e3;
  r.hkdf_expand_label_ns =
      probe("crypto.hkdf_expand_label", n, spans, [&](size_t i) {
        auto key = crypto::hkdf_expand_label(secrets[i], "quic key", {}, 16);
        g_sink = g_sink + key[0];
      });
  r.hmac_sha256_ns = probe("crypto.hmac_sha256", n, spans, [&](size_t i) {
    auto mac = crypto::hmac_sha256(secrets[i], secrets[(i + 1) % n]);
    g_sink = g_sink + mac[0];
  });

  std::vector<crypto::Aes128Gcm> aeads;
  for (const auto& secret : secrets)
    aeads.emplace_back(std::span<const uint8_t>(secret.data(), 16));
  std::vector<uint8_t> sealed;
  r.aead_seal_1200_ns =
      probe("crypto.aead_seal_1200", n, spans, [&](size_t i) {
        sealed.clear();
        aeads[i].seal_append(std::span<const uint8_t>(secrets[i].data(), 12),
                             aad, plaintext, sealed);
        g_sink = g_sink + sealed.back();
      });

  // Client Initial sealed by the client, opened by the server's receive
  // side (which also holds the client keys).
  std::vector<quic::PacketProtector> clients, servers;
  for (const auto& dcid : dcids) {
    clients.push_back(quic::PacketProtector::for_initial(kVersion, dcid, false));
    servers.push_back(quic::PacketProtector::for_initial(kVersion, dcid, false));
  }
  const std::span<const uint8_t> payload(plaintext.data(), 1162);
  std::vector<uint8_t> datagram;
  quic::Packet opened;
  bool all_opened = true;
  r.packet_roundtrip_ns =
      probe("quic.packet_roundtrip", n, spans, [&](size_t i) {
        quic::Packet packet;
        packet.type = quic::PacketType::kInitial;
        packet.version = kVersion;
        packet.dcid = dcids[i];
        packet.scid = dcids[(i + 1) % n];
        packet.packet_number = i;
        datagram.clear();
        clients[i].protect_into(packet, payload, datagram);
        size_t offset = 0;
        all_opened &= servers[i].unprotect_into(datagram, offset, opened);
        g_sink = g_sink + opened.payload.size();
      });
  if (!all_opened)
    throw std::runtime_error("probe: a protected Initial did not open");

  log.spans()[root].end_ns = now_ns();
  log.append(spans, static_cast<int64_t>(root));
  return r;
}

}  // namespace bench
