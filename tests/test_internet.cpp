// Synthetic-internet model tests: AS registry attribution, the TP
// catalog invariants the paper states, population structure and weekly
// evolution rules, and the lazily built world's order independence.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>

#include "internet/internet.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace {

using namespace internet;

TEST(AsRegistry, Table7AsesPresent) {
  auto reg = AsRegistry::standard(10);
  EXPECT_EQ(reg.name(kAsCloudflare), "Cloudflare, Inc.");
  EXPECT_EQ(reg.name(kAsGoogle), "Google LLC");
  EXPECT_EQ(reg.name(kAsFastly), "Fastly");
  EXPECT_EQ(reg.name(kAsHostinger), "Hostinger International Limited");
  EXPECT_EQ(reg.name(999999), "AS999999");
}

TEST(AsRegistry, LongestPrefixAttribution) {
  auto reg = AsRegistry::standard(10);
  auto addr = reg.allocate(kAsCloudflare, netsim::Family::kIpv4, 0);
  EXPECT_EQ(reg.asn_for(addr), kAsCloudflare);
  auto addr6 = reg.allocate(kAsGoogle, netsim::Family::kIpv6, 5);
  EXPECT_EQ(reg.asn_for(addr6), kAsGoogle);
  EXPECT_EQ(reg.asn_for(netsim::IpAddress::v4(0x08080808)), 0u);
}

TEST(AsRegistry, AllocationsAreDistinctAndStable) {
  auto reg = AsRegistry::standard(10);
  std::set<netsim::IpAddress> seen;
  for (uint64_t i = 0; i < 100; ++i) {
    auto addr = reg.allocate(kAsCloudflare, netsim::Family::kIpv4, i);
    EXPECT_TRUE(seen.insert(addr).second) << i;
    EXPECT_EQ(addr, reg.allocate(kAsCloudflare, netsim::Family::kIpv4, i));
  }
}

TEST(TpCatalog, ExactlyFortyFiveDistinctConfigs) {
  const auto& catalog = tp_catalog();
  ASSERT_EQ(catalog.size(), 45u);
  std::set<std::string> keys;
  for (const auto& entry : catalog)
    EXPECT_TRUE(keys.insert(entry.params.config_key()).second)
        << "duplicate config " << entry.id;
}

TEST(TpCatalog, PaperStatedConstraints) {
  const auto& catalog = tp_catalog();
  // Cloudflare: 1 MiB stream data, 10x initial max data.
  const auto& cf = catalog[kTpConfigCloudflare].params;
  EXPECT_EQ(cf.initial_max_stream_data_bidi_local, 1048576u);
  EXPECT_EQ(cf.initial_max_data, 10485760u);
  // Facebook AS vs POP configs differ only in udp payload / stream data.
  EXPECT_EQ(catalog[kTpConfigMvfstAs1500].params.max_udp_payload_size, 1500u);
  EXPECT_EQ(catalog[kTpConfigMvfstAs1404].params.max_udp_payload_size, 1404u);
  EXPECT_EQ(catalog[kTpConfigMvfstPop1500]
                .params.initial_max_stream_data_bidi_local,
            67584u);
  // 12 configs at the 65527 default, 12 at 1500, 10 distinct values.
  int defaults = 0, at_1500 = 0;
  std::set<uint64_t> distinct;
  for (const auto& entry : catalog) {
    uint64_t effective = entry.params.effective_max_udp_payload_size();
    distinct.insert(effective);
    if (effective == 65527) ++defaults;
    if (effective == 1500) ++at_1500;
  }
  EXPECT_EQ(defaults, 12);
  EXPECT_EQ(at_1500, 12);
  EXPECT_EQ(distinct.size(), 10u);
  // Ranges: data 8 KiB .. 16 MiB, stream data 32 KiB .. 10 MiB.
  uint64_t min_data = UINT64_MAX, max_data = 0, min_stream = UINT64_MAX,
           max_stream = 0;
  for (const auto& entry : catalog) {
    if (entry.params.initial_max_data) {
      min_data = std::min(min_data, *entry.params.initial_max_data);
      max_data = std::max(max_data, *entry.params.initial_max_data);
    }
    if (entry.params.initial_max_stream_data_bidi_local) {
      min_stream =
          std::min(min_stream, *entry.params.initial_max_stream_data_bidi_local);
      max_stream =
          std::max(max_stream, *entry.params.initial_max_stream_data_bidi_local);
    }
  }
  EXPECT_EQ(min_data, 8192u);
  EXPECT_EQ(max_data, 16777216u);
  EXPECT_EQ(min_stream, 32768u);
  EXPECT_EQ(max_stream, 10485760u);
}

TEST(TpCatalog, RoundTripThroughWireFormatPreservesConfigId) {
  for (const auto& entry : tp_catalog()) {
    auto decoded = quic::decode_transport_parameters(
        quic::encode_transport_parameters(entry.params));
    EXPECT_EQ(tp_config_id_for_key(decoded.config_key()), entry.id);
  }
}

class PopulationTest : public ::testing::Test {
 protected:
  static const Population& week18() {
    static Population population({.dns_corpus_scale = 0.01}, 18);
    return population;
  }
};

TEST_F(PopulationTest, AddressesUniqueAndAttributable) {
  std::set<netsim::IpAddress> seen;
  for (const auto& host : week18().hosts()) {
    EXPECT_TRUE(seen.insert(host.address).second)
        << host.address.to_string();
    EXPECT_EQ(week18().as_registry().asn_for(host.address), host.asn)
        << host.address.to_string();
  }
}

TEST_F(PopulationTest, GroupBehaviorsMatchDesign) {
  size_t cf = 0, mismatch = 0, stall = 0, vn_silent_v6 = 0;
  for (const auto& host : week18().hosts()) {
    if (host.group == "cloudflare") {
      ++cf;
      // Week 18: v1 deployed (Figure 5's flip).
      EXPECT_TRUE(std::find(host.handshake_versions.begin(),
                            host.handshake_versions.end(),
                            quic::kVersion1) != host.handshake_versions.end());
    }
    if (host.group == "google-mismatch") {
      ++mismatch;
      // Advertises draft-29 but cannot handshake it.
      EXPECT_TRUE(std::find(host.advertised_versions.begin(),
                            host.advertised_versions.end(),
                            quic::kDraft29) != host.advertised_versions.end());
      EXPECT_TRUE(std::find(host.handshake_versions.begin(),
                            host.handshake_versions.end(),
                            quic::kDraft29) == host.handshake_versions.end());
    }
    if (host.group == "akamai") {
      ++stall;
      EXPECT_TRUE(host.stall_handshake);
    }
    if (host.group == "hostinger" && host.address.is_v6()) {
      ++vn_silent_v6;
      EXPECT_FALSE(host.respond_to_vn);
    }
  }
  EXPECT_GT(cf, 0u);
  EXPECT_GT(mismatch, 0u);
  EXPECT_GT(stall, 0u);
  EXPECT_GT(vn_silent_v6, 100u);  // the Alt-Svc-only v6 fleet
}

TEST_F(PopulationTest, DomainsPointAtTheirHosts) {
  const auto& pop = week18();
  size_t stale_records = 0, registered = 0;
  for (const auto& domain : pop.domains()) {
    ASSERT_FALSE(domain.v4_hosts.empty() && domain.v6_hosts.empty())
        << domain.name;
    // The primary record always serves the domain; later records may be
    // stale (intentionally unregistered -- the paper's SNI failures).
    if (!domain.v4_hosts.empty()) {
      uint32_t first = domain.v4_hosts[0];
      ASSERT_LT(first, pop.hosts().size());
      EXPECT_TRUE(pop.hosts()[first].domain_ids.contains(domain.id))
          << domain.name;
    }
    for (uint32_t h : domain.v4_hosts) {
      ASSERT_LT(h, pop.hosts().size());
      EXPECT_TRUE(pop.hosts()[h].address.is_v4());
      if (pop.hosts()[h].domain_ids.contains(domain.id))
        ++registered;
      else
        ++stale_records;
    }
    for (uint32_t h : domain.v6_hosts)
      EXPECT_TRUE(pop.hosts()[h].address.is_v6());
  }
  // Stale records exist but stay a small minority.
  EXPECT_GT(stale_records, 0u);
  EXPECT_LT(stale_records, registered / 5);
}

TEST_F(PopulationTest, AllTpConfigsRepresented) {
  std::set<int> used;
  for (const auto& host : week18().hosts())
    if (host.quic_enabled()) used.insert(host.tp_config);
  // Figure 9 needs all 45 configurations observable.
  EXPECT_EQ(used.size(), 45u);
}

TEST(PopulationEvolution, GrowsAcrossWeeks) {
  Population early({.dns_corpus_scale = 0.01}, 5);
  Population late({.dns_corpus_scale = 0.01}, 18);
  EXPECT_LT(early.hosts().size(), late.hosts().size());
  EXPECT_LT(early.domains().size(), late.domains().size());
}

TEST(PopulationEvolution, CloudflareVersionFlipAtWeek16) {
  Population before({.dns_corpus_scale = 0.01}, 15);
  for (const auto& host : before.hosts()) {
    if (host.group != "cloudflare") continue;
    EXPECT_TRUE(std::find(host.handshake_versions.begin(),
                          host.handshake_versions.end(),
                          quic::kVersion1) == host.handshake_versions.end());
  }
}

TEST(PopulationEvolution, HttpsRrAdoptionGrows) {
  auto count_https = [](const Population& pop) {
    size_t n = 0;
    for (const auto& d : pop.domains())
      if (d.https_rr_since_week > 0 && d.https_rr_since_week <= pop.week())
        ++n;
    return n;
  };
  Population w10({.dns_corpus_scale = 0.01}, 10);
  Population w14({.dns_corpus_scale = 0.01}, 14);
  Population w18({.dns_corpus_scale = 0.01}, 18);
  size_t c10 = count_https(w10), c14 = count_https(w14),
         c18 = count_https(w18);
  EXPECT_LT(c10, c14);
  EXPECT_LT(c14, c18);
}

TEST(PopulationEvolution, AddressesStableAcrossWeeks) {
  // A host that exists in week 10 keeps its address in week 18 --
  // longitudinal joins depend on this.
  Population w10({.dns_corpus_scale = 0.01}, 10);
  Population w18({.dns_corpus_scale = 0.01}, 18);
  size_t checked = 0;
  for (const auto& host : w10.hosts()) {
    const auto* later = w18.host_by_address(host.address);
    if (!later) continue;
    EXPECT_EQ(later->group, host.group);
    ++checked;
  }
  // The overwhelming majority must carry over.
  EXPECT_GT(checked, w10.hosts().size() * 9 / 10);
}

TEST(InternetFacade, ZonesServeHostsAndHttpsRrs) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.01}, 18, loop);
  const auto& pop = internet.population();
  // Find a domain with an HTTPS RR and check the zone data matches.
  size_t checked = 0;
  dns::Resolver resolver(internet.zones());
  for (const auto& domain : pop.domains()) {
    if (domain.https_rr_since_week == 0 || domain.v4_hosts.empty()) continue;
    auto result = resolver.resolve(domain.name, dns::RRType::kHttps);
    auto svcb = result.svcb();
    ASSERT_EQ(svcb.size(), 1u) << domain.name;
    EXPECT_FALSE(svcb[0].alpn.empty());
    ASSERT_FALSE(svcb[0].ipv4_hints.empty());
    EXPECT_EQ(svcb[0].ipv4_hints[0],
              pop.hosts()[domain.v4_hosts[0]].address);
    if (++checked >= 25) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST(InternetFacade, ListCorpusSizesMatchSpecs) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 1.0}, 18, loop);
  EXPECT_EQ(internet.list_corpus("alexa").size(), 1000u);
  EXPECT_EQ(internet.list_corpus("majestic").size(), 1000u);
  EXPECT_EQ(internet.list_corpus("umbrella").size(), 1000u);
  EXPECT_EQ(internet.list_corpus("czds").size(), 31000u);
  // com/net/org additionally absorbs every stored domain the striding
  // skipped (zone files cover all registered names).
  EXPECT_GE(internet.list_corpus("comnetorg").size(), 180000u);
  EXPECT_LE(internet.list_corpus("comnetorg").size(), 260000u);
  EXPECT_THROW(internet.list_corpus("nosuch"), std::invalid_argument);
}

TEST(PopulationEvolution, EveryWeekBuildsConsistently) {
  size_t previous_hosts = 0;
  for (int week = 5; week <= 18; ++week) {
    Population population({.dns_corpus_scale = 0.005}, week);
    // Monotone growth week over week.
    EXPECT_GE(population.hosts().size(), previous_hosts) << "week " << week;
    previous_hosts = population.hosts().size();
    // Structural invariants hold at every snapshot.
    std::set<netsim::IpAddress> addresses;
    for (const auto& host : population.hosts()) {
      EXPECT_TRUE(addresses.insert(host.address).second)
          << "duplicate address in week " << week;
      EXPECT_GE(host.tp_config, 0);
      EXPECT_LT(host.tp_config, kTpConfigCount);
      if (host.quic_enabled() && !host.stall_handshake &&
          !host.handshake_versions.empty()) {
        // A deployment that can handshake must offer at least one ALPN.
        EXPECT_FALSE(host.quic_alpn.empty()) << host.group;
      }
    }
  }
}

TEST(PopulationEvolution, VersionSetsOnlyEverGainVersions) {
  // Per group, the advertised version set at week 18 is a superset of
  // week 5's (deployments upgraded; nobody removed support mid-window).
  Population early({.dns_corpus_scale = 0.005}, 5);
  Population late({.dns_corpus_scale = 0.005}, 18);
  std::map<std::string, std::set<quic::Version>> early_sets, late_sets;
  for (const auto& host : early.hosts())
    early_sets[host.group].insert(host.advertised_versions.begin(),
                                  host.advertised_versions.end());
  for (const auto& host : late.hosts())
    late_sets[host.group].insert(host.advertised_versions.begin(),
                                 host.advertised_versions.end());
  for (const auto& [group, versions] : early_sets) {
    for (quic::Version v : versions)
      EXPECT_TRUE(late_sets[group].contains(v))
          << group << " dropped " << quic::version_name(v);
  }
}

TEST(InternetFacade, ZmapCandidatesIncludeDudsButNoDuplicates) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.005}, 18, loop);
  auto candidates = internet.zmap_candidates_v4(2);
  std::set<netsim::IpAddress> unique(candidates.begin(), candidates.end());
  EXPECT_EQ(unique.size(), candidates.size());
  size_t v4_hosts = 0;
  for (const auto& host : internet.population().hosts())
    if (host.address.is_v4()) ++v4_hosts;
  EXPECT_EQ(candidates.size(), v4_hosts * 3);  // host + 2 duds each
}

TEST(InternetFacade, HostLookupMatchesPopulation) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.005}, 18, loop);
  size_t checked = 0;
  for (const auto& host : internet.population().hosts()) {
    const auto* server = internet.host_for(host.address);
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->profile().id, host.id);
    if (++checked > 200) break;
  }
}

TEST(InternetFacade, WorldsBuildOnlyTheHostsTheyReach) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.005}, 18, loop);
  internet.apply_impairment(*netsim::find_impairment_profile("hostile"));
  internet.apply_adversary(*find_adversary_profile("malicious"));
  EXPECT_EQ(internet.hosts_built(), 0u);

  const auto& hosts = internet.population().hosts();
  ASSERT_GT(hosts.size(), 3u);
  auto socket = internet.network().open_udp(
      {netsim::IpAddress::v4(0xc0000202), 40000});
  socket->send({hosts[0].address, kQuicPort}, {0x00});
  socket->send({hosts[0].address, kQuicPort}, {0x00});
  internet.network().tcp_port_open({hosts[1].address, kTlsPort});
  socket->send({netsim::IpAddress::v4(0x0a0b0c0d), kQuicPort}, {0x00});
  EXPECT_EQ(internet.hosts_built(), 2u);
  // Each host gets the stored overlay the moment it is built.
  EXPECT_TRUE(internet.network().link(hosts[1].address).impaired());
  EXPECT_FALSE(internet.network().link(hosts[3].address).impaired());
  // host_for is total over the population: it builds on demand.
  ASSERT_NE(internet.host_for(hosts[2].address), nullptr);
  EXPECT_EQ(internet.hosts_built(), 3u);
  EXPECT_EQ(internet.host_for(netsim::IpAddress::v4(0x0a0b0c0d)), nullptr);
}

TEST(InternetFacade, HostCreationOrderChangesNoOutput) {
  // Two worlds over one snapshot, same overlays, one target list
  // scanned forwards and reversed: the worlds build their hosts in
  // opposite orders, so any dependence of a host on creation order
  // (its RNG stream, its overlays) shows up as a differing row or
  // wire digest.
  auto snapshot = std::make_shared<const Snapshot>(
      PopulationParams{.dns_corpus_scale = 0.005}, 18);
  std::vector<scanner::QscanTarget> targets;
  const auto& hosts = snapshot->population().hosts();
  for (size_t i = 0; i < hosts.size(); i += 11) {
    if (!hosts[i].address.is_v4()) continue;
    targets.push_back(
        {hosts[i].address, std::nullopt, hosts[i].advertised_versions});
  }
  ASSERT_GT(targets.size(), 100u);

  struct Scan {
    std::vector<std::string> rows;
    std::map<std::string, uint64_t> outcomes;
    // FNV-1a over every datagram to or from each target, in send
    // order: the server's bytes carry its RNG stream (connection IDs,
    // randoms, key shares), which the CSV row alone would not show.
    std::map<netsim::IpAddress, uint64_t> wire;
  };
  auto scan = [&](bool reversed) {
    netsim::EventLoop loop;
    Internet internet(snapshot, loop);
    internet.apply_impairment(*netsim::find_impairment_profile("hostile"));
    internet.apply_adversary(*find_adversary_profile("malicious"));
    telemetry::MetricsRegistry metrics;
    Scan out;
    internet.network().set_tap([&out](const netsim::Endpoint& from,
                                      const netsim::Endpoint& to,
                                      std::span<const uint8_t> payload) {
      const bool inbound = to.port == kQuicPort;
      uint64_t& h = out.wire
                        .try_emplace(inbound ? to.addr : from.addr,
                                     0xcbf29ce484222325ull)
                        .first->second;
      auto fold = [&h](uint8_t byte) {
        h = (h ^ byte) * 0x100000001b3ull;
      };
      fold(inbound ? 1 : 2);
      for (uint8_t byte : payload) fold(byte);
    });
    out.rows.resize(targets.size());
    for (size_t k = 0; k < targets.size(); ++k) {
      const size_t i = reversed ? targets.size() - 1 - k : k;
      // A scanner per target, seeded by target index: each target's
      // attempt entropy is then the same in both scan orders.
      scanner::QscanOptions options;
      options.seed = 0x0de7 + i;
      options.metrics = &metrics;
      scanner::QScanner qscanner(internet.network(), options);
      out.rows[i] = report::to_csv_row(
          report::features_of(qscanner.scan_one(targets[i])));
    }
    for (size_t o = 0; o < scanner::kQscanOutcomeCount; ++o) {
      auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(o));
      const auto* counter = metrics.find_counter("qscan.outcome." + name);
      out.outcomes[name] = counter ? counter->value() : 0;
    }
    return out;
  };
  const Scan forward = scan(false);
  const Scan backward = scan(true);
  for (size_t i = 0; i < targets.size(); ++i)
    EXPECT_EQ(forward.rows[i], backward.rows[i]) << "target " << i;
  EXPECT_EQ(forward.outcomes, backward.outcomes);
  EXPECT_EQ(forward.wire, backward.wire);
  EXPECT_EQ(forward.wire.size(), targets.size());
  // The overlays must actually bite, or the comparison proves little.
  const auto success = scanner::to_string(scanner::QscanOutcome::kSuccess);
  EXPECT_LT(forward.outcomes.at(success), targets.size());
}

}  // namespace
