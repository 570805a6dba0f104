// zmap-quic: command-line front end for the ZMap QUIC module, run
// against a synthetic-internet snapshot. Mirrors the published module's
// ergonomics: sweep, forced version negotiation, CSV output.
//
//   zmap_quic_cli [--no-padding] [--pps N] [--blocklist CIDR[,CIDR...]]
//                 [--ipv6] [--csv] [campaign flags, see cli_common.h]
//
// --no-padding sends unpadded probes instead of 1200-byte ones; --pps
// caps the probe rate (decimal, 0 = unlimited); --blocklist skips the
// listed prefixes; --ipv6 sweeps the IPv6 hitlist instead of the IPv4
// candidate space; --csv prints saddr,versions rows. --jobs N mirrors
// the real ZMap's sender shards. --qlog writes one trace per slice
// (the module is stateless, so a slice's probes and VN responses share
// one file); --retries N re-probes non-responders in up to N extra
// sweep rounds; --report covers version sets and the version-support
// matrix (Figures 5/6).
#include <cstdio>
#include <memory>
#include <string>

#include "cli_common.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "report/report.h"
#include "scanner/zmap.h"
#include "telemetry/trace.h"

int main(int argc, char** argv) try {
  cli::CampaignFlags flags;
  flags.seed = 0x2a9a;
  bool padding = true;
  bool ipv6 = false;
  bool csv = false;
  uint64_t pps = 15'000;
  scanner::Blocklist blocklist;

  for (int i = 1; i < argc; ++i) {
    if (cli::parse_campaign_flag(argc, argv, i, flags)) continue;
    std::string arg = argv[i];
    if (arg == "--no-padding") {
      padding = false;
    } else if (arg == "--pps" && i + 1 < argc) {
      pps = cli::parse_unsigned("--pps", argv[++i]);
    } else if (arg == "--ipv6") {
      ipv6 = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--blocklist" && i + 1 < argc) {
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        std::string cidr = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        auto prefix = netsim::Prefix::parse(cidr);
        if (!prefix) {
          std::fprintf(stderr, "bad blocklist entry: %s\n", cidr.c_str());
          return 2;
        }
        blocklist.add(*prefix);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      cli::print_usage(
          "zmap_quic_cli [--no-padding] [--pps N] "
          "[--blocklist CIDR[,CIDR...]] [--ipv6] [--csv]");
      return 2;
    }
  }
  cli::resolve_campaign_flags(flags);

  const auto campaign_options =
      cli::campaign_options(flags, {.dns_corpus_scale = 0.01});
  engine::Campaign campaign(campaign_options);

  // The sweep space comes from a planning world over the same shared
  // snapshot every campaign slice uses, so the slices line up.
  netsim::EventLoop planning_loop;
  internet::Internet planning(campaign_options.snapshot, planning_loop);
  auto targets =
      ipv6 ? planning.ipv6_hitlist() : planning.zmap_candidates_v4();

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::ZmapHit>> shard_hits(slots);
  std::vector<scanner::ZmapStats> shard_stats(slots);

  const bool want_report = !flags.report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("zmap"); });

  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    std::unique_ptr<telemetry::TraceSink> sweep_trace;
    if (env.trace_factory) sweep_trace = env.trace_factory("zmap_sweep");

    scanner::ZmapOptions options;
    options.pad_to_1200 = padding;
    options.packets_per_second = pps;
    options.blocklist = blocklist;
    options.seed = env.seed;
    options.metrics = env.metrics;
    options.trace_sink = sweep_trace.get();
    options.probe_rounds = 1 + flags.retries;
    scanner::ZmapQuicScanner zmap(env.internet->network(),
                                  std::move(options));
    shard_hits[static_cast<size_t>(env.shard_index)] =
        zmap.scan(std::span<const netsim::IpAddress>(
            targets.data() + env.range.begin, env.range.size()));
    shard_stats[static_cast<size_t>(env.shard_index)] = zmap.stats();
    if (want_report) {
      auto& acc = report_fold.slot(env.shard_index);
      acc.attach_metrics(env.metrics);
      const auto& registry = env.internet->population().as_registry();
      for (const auto& hit :
           shard_hits[static_cast<size_t>(env.shard_index)])
        acc.add_zmap_hit(hit.address.to_string(), hit.versions,
                         registry.asn_for(hit.address));
    }
  });

  // Each shard's hit list is address-ordered and shard target sets are
  // disjoint, so the merge reproduces the serial sweep's order.
  auto hits = engine::merge_sorted_shards(
      std::move(shard_hits),
      [](const scanner::ZmapHit& a, const scanner::ZmapHit& b) {
        return a.address < b.address;
      });
  scanner::ZmapStats stats;
  for (const auto& shard : shard_stats) {
    stats.targets += shard.targets;
    stats.probes_sent += shard.probes_sent;
    stats.bytes_sent += shard.bytes_sent;
    stats.responses += shard.responses;
    stats.malformed += shard.malformed;
    stats.blocked += shard.blocked;
    stats.retry_rounds += shard.retry_rounds;
  }

  if (csv) {
    std::printf("saddr,versions\n");
    for (const auto& hit : hits) {
      std::string versions;
      for (quic::Version v : hit.versions) {
        if (!versions.empty()) versions += " ";
        versions += quic::version_name(v);
      }
      std::printf("%s,%s\n", hit.address.to_string().c_str(),
                  versions.c_str());
    }
  } else {
    for (const auto& hit : hits) {
      std::printf("%-40s %s\n", hit.address.to_string().c_str(),
                  quic::version_set_name(hit.versions).c_str());
    }
  }
  if (want_report)
    report::write_report_dir(flags.report_dir, report_fold.merged());
  std::fprintf(stderr,
               "# probed %llu targets (%llu blocked), %llu probes / %llu "
               "bytes sent, %zu responders\n",
               static_cast<unsigned long long>(stats.targets),
               static_cast<unsigned long long>(stats.blocked),
               static_cast<unsigned long long>(stats.probes_sent),
               static_cast<unsigned long long>(stats.bytes_sent),
               hits.size());
  cli::print_campaign_summary(flags, campaign);
  cli::write_metrics_files(flags, campaign);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
