// The Internet facade: builds the population for a week, puts its
// hosts on the simulated network fabric (UDP/443 + TCP/443) as traffic
// first reaches them, builds the authoritative DNS zones (A/AAAA/HTTPS),
// and exposes the scan inputs the paper's tooling consumed -- the IPv4
// sweep space, the IPv6 hitlist, and the domain corpora.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/rng.h"
#include "dns/resolver.h"
#include "internet/adversary.h"
#include "internet/host.h"
#include "internet/population.h"
#include "netsim/impairment.h"
#include "netsim/network.h"

namespace internet {

inline constexpr uint16_t kQuicPort = 443;
inline constexpr uint16_t kTlsPort = 443;

/// The immutable half of a scan world: the population snapshot for one
/// calendar week plus the authoritative DNS zones derived from it.
/// Building one is the expensive part of world construction (tens of
/// milliseconds); everything in it is read-only after the constructor
/// returns, so one Snapshot can be shared -- concurrently -- by any
/// number of Internet worlds. The campaign engine builds a single
/// Snapshot per campaign and hands it to every shard/chunk world,
/// which keeps the per-world cost down to the genuinely mutable state
/// (network fabric, the server hosts the slice actually reaches).
class Snapshot {
 public:
  Snapshot(const PopulationParams& params, int week);

  const PopulationParams& params() const { return params_; }
  const Population& population() const { return population_; }
  const dns::ZoneStore& zones() const { return zones_; }

 private:
  PopulationParams params_;
  Population population_;
  dns::ZoneStore zones_;
};

class Internet {
 public:
  /// Self-contained world: builds a private Snapshot. Byte-identical to
  /// the shared-snapshot constructor -- the snapshot split moved code,
  /// not behavior.
  Internet(const PopulationParams& params, int week, netsim::EventLoop& loop);

  /// World over a shared immutable snapshot. Only the mutable state
  /// (network fabric, server hosts) is built per world; the snapshot
  /// may be shared with other worlds on other threads.
  ///
  /// Server hosts are built lazily: a host's ServerHost, its services
  /// and its overlays come into being when the first datagram, TCP
  /// connect, TCP probe or set_link reaches its address (or host_for
  /// asks for it). Each host's RNG is forked from one fixed parent by
  /// address, so the order in which hosts are reached changes no byte
  /// of output; a world that never touches the fabric (a DNS scan)
  /// builds no host at all.
  Internet(std::shared_ptr<const Snapshot> snapshot, netsim::EventLoop& loop);

  // The fabric's contact hook points back at this world.
  Internet(const Internet&) = delete;
  Internet& operator=(const Internet&) = delete;

  netsim::Network& network() { return network_; }
  const Population& population() const { return snapshot_->population(); }
  const dns::ZoneStore& zones() const { return snapshot_->zones(); }
  const std::shared_ptr<const Snapshot>& snapshot() const {
    return snapshot_;
  }

  /// IPv4 sweep candidates: every allocated host address plus
  /// `dud_factor` unresponsive addresses per host (the sweep must wade
  /// through silence, like the real 3-billion-address scan did).
  std::vector<netsim::IpAddress> zmap_candidates_v4(int dud_factor = 2) const;

  /// IPv6 scan input: union of AAAA resolutions and a hitlist-style
  /// sample of known-active v6 addresses.
  std::vector<netsim::IpAddress> ipv6_hitlist() const;

  /// All domain names of one input list (stored members followed by the
  /// synthetic non-QUIC bulk), ready for the DNS scanner.
  std::vector<std::string> list_corpus(const std::string& list_name) const;

  /// The server host at `addr`, built now if nothing has reached it
  /// yet; nullptr only for addresses outside the population.
  const ServerHost* host_for(const netsim::IpAddress& addr);

  /// Server hosts built so far in this world.
  size_t hosts_built() const { return hosts_.size(); }

  /// Overlays `profile` onto every host's link (both directions of its
  /// traffic pass the impairment pipeline) and, when the profile asks
  /// for it, switches the hosts to split handshake flights. Hosts built
  /// later get the overlay as they are built. A clean profile is an
  /// exact no-op, so `--impair clean` is byte-identical to no flag.
  void apply_impairment(const netsim::ImpairmentProfile& profile);

  /// Overlays `profile` onto every host as a deterministic per-host
  /// AdversaryPlan (stateless hash of the population seed and the host
  /// address -- see internet/adversary.h); hosts built later get their
  /// plan as they are built. The `compliant` profile is an exact no-op,
  /// so `--adversary compliant` is byte-identical to no flag.
  void apply_adversary(const AdversaryProfile& profile);

 private:
  void overlay_impairment(ServerHost& host);

  netsim::EventLoop& loop_;
  std::shared_ptr<const Snapshot> snapshot_;
  netsim::Network network_;
  crypto::Rng host_rng_;  // fixed parent; never drawn from, only forked
  std::unordered_map<netsim::IpAddress, std::unique_ptr<ServerHost>,
                     netsim::IpAddressHash>
      hosts_;
  std::optional<netsim::ImpairmentProfile> impairment_;
  std::optional<AdversaryModel> adversary_;
};

}  // namespace internet
