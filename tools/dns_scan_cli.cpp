// dns-scan: MassDNS-style bulk resolution of one of the paper's input
// lists against a synthetic-internet snapshot, printing CSV rows for
// domains with any A/AAAA/HTTPS data (the QUIC-relevant subset).
//
//   dns_scan_cli [--list NAME] [--https-only]
//                [campaign flags, see cli_common.h]
//
// NAME is one of: alexa (default), majestic, umbrella, czds, comnetorg.
// --https-only prints only domains with an HTTPS RR. --seed also
// reseeds the synthetic population. --qlog writes one trace per slice.
// --impair and --adversary matter little here: the resolver path is
// zone-store backed. --retries N re-queries empty-answer domains up to
// N extra times. --report covers HTTPS-RR adoption (Figure 3) and the
// DNS-join columns of Tables 1/2.
#include <cstdio>
#include <memory>
#include <string>

#include "cli_common.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "report/report.h"
#include "scanner/dns_scan.h"
#include "telemetry/trace.h"

int main(int argc, char** argv) try {
  cli::CampaignFlags flags;
  flags.seed = 0x9000;
  std::string list = "alexa";
  bool https_only = false;
  for (int i = 1; i < argc; ++i) {
    if (cli::parse_campaign_flag(argc, argv, i, flags)) continue;
    std::string arg = argv[i];
    if (arg == "--list" && i + 1 < argc) {
      list = argv[++i];
    } else if (arg == "--https-only") {
      https_only = true;
    } else {
      cli::print_usage("dns_scan_cli [--list NAME] [--https-only]");
      return 2;
    }
  }
  cli::resolve_campaign_flags(flags);

  const auto campaign_options = cli::campaign_options(
      flags, {.seed = flags.seed, .dns_corpus_scale = 0.05});
  engine::Campaign campaign(campaign_options);

  // The corpus comes from a planning world over the same shared
  // snapshot every campaign slice uses, so the domain slices line up.
  std::vector<std::string> corpus;
  {
    netsim::EventLoop planning_loop;
    internet::Internet planning(campaign_options.snapshot, planning_loop);
    corpus = planning.list_corpus(list);
  }

  const size_t slots = campaign.slot_count(corpus.size());
  std::vector<scanner::DnsListScan> shard_scans(slots);
  std::vector<uint64_t> shard_queries(slots, 0);

  const bool want_report = !flags.report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("dns"); });

  campaign.run(corpus.size(), [&](engine::ShardEnv& env) {
    std::unique_ptr<telemetry::TraceSink> trace;
    if (env.trace_factory) trace = env.trace_factory("dns_" + list);

    scanner::RetryPolicy retry;
    retry.max_attempts = 1 + flags.retries;
    scanner::DnsScanner dns(
        env.internet->zones(), env.metrics,
        telemetry::Tracer(trace.get(), env.loop,
                          telemetry::Vantage::kClient),
        retry);
    shard_scans[static_cast<size_t>(env.shard_index)] = dns.scan_list(
        list, std::span<const std::string>(corpus.data() + env.range.begin,
                                           env.range.size()));
    shard_queries[static_cast<size_t>(env.shard_index)] =
        dns.queries_sent();
    if (want_report) {
      auto& acc = report_fold.slot(env.shard_index);
      acc.attach_metrics(env.metrics);
      for (const auto& record :
           shard_scans[static_cast<size_t>(env.shard_index)].records)
        acc.add_dns_record(list, record);
    }
  });

  // Contiguous shards preserve corpus order on concat; aggregate
  // counts sum across shards.
  scanner::DnsListScan scan;
  scan.list = list;
  uint64_t queries = 0;
  for (size_t s = 0; s < shard_scans.size(); ++s) {
    auto& shard = shard_scans[s];
    scan.domains_resolved += shard.domains_resolved;
    scan.with_https_rr += shard.with_https_rr;
    scan.with_a += shard.with_a;
    scan.with_aaaa += shard.with_aaaa;
    for (auto& record : shard.records)
      scan.records.push_back(std::move(record));
    queries += shard_queries[static_cast<size_t>(s)];
  }

  std::printf("domain,a,aaaa,https_alpn,ipv4_hints,ipv6_hints\n");
  auto join = [](const auto& items, auto to_string) {
    std::string out;
    for (const auto& item : items) {
      if (!out.empty()) out += " ";
      out += to_string(item);
    }
    return out;
  };
  for (const auto& record : scan.records) {
    if (https_only && !record.has_https_rr()) continue;
    std::string alpn, hints4, hints6;
    for (const auto& svcb : record.https) {
      for (const auto& token : svcb.alpn) {
        if (!alpn.empty()) alpn += " ";
        alpn += token;
      }
      for (const auto& addr : svcb.ipv4_hints) {
        if (!hints4.empty()) hints4 += " ";
        hints4 += addr.to_string();
      }
      for (const auto& addr : svcb.ipv6_hints) {
        if (!hints6.empty()) hints6 += " ";
        hints6 += addr.to_string();
      }
    }
    std::printf("%s,%s,%s,%s,%s,%s\n", record.domain.c_str(),
                join(record.a, [](const auto& a) { return a.to_string(); })
                    .c_str(),
                join(record.aaaa, [](const auto& a) { return a.to_string(); })
                    .c_str(),
                alpn.c_str(), hints4.c_str(), hints6.c_str());
  }
  if (want_report)
    report::write_report_dir(flags.report_dir, report_fold.merged());
  std::fprintf(stderr,
               "# list=%s resolved=%zu with_a=%zu with_aaaa=%zu "
               "with_https_rr=%zu (%.2f %%), %llu DNS queries\n",
               list.c_str(), scan.domains_resolved, scan.with_a,
               scan.with_aaaa, scan.with_https_rr,
               100.0 * scan.https_rr_rate(),
               static_cast<unsigned long long>(queries));
  cli::print_campaign_summary(flags, campaign);
  cli::write_metrics_files(flags, campaign);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
