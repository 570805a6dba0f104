// qscanner: command-line front end for the stateful scanner, run
// against a synthetic-internet snapshot. Like the released QScanner it
// accepts address or address,SNI targets and emits one CSV row per
// attempt with outcome, version, TLS, transport-parameter and HTTP
// fields.
//
//   qscanner_cli [--all | --targets FILE] [--no-http] [--breaker]
//                [campaign flags, see cli_common.h]
//
// FILE format: one target per line, "address" or "address,sni-domain".
// --all (the default without --targets) scans every ZMap-discoverable
// IPv4 address without SNI. --no-http skips the HTTP HEAD after a
// successful handshake. --breaker enables the per-AS circuit breaker
// (skip-and-record when a provider keeps timing out). --qlog writes
// one trace per attempt; --retries N gives each timed-out target up to
// N extra attempts with deterministic backoff; --report output is
// byte-identical to an offline qreport_cli replay of the CSV.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "cli_common.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"

namespace {

// The RFC 4180 escaping (wire-derived fields -- server headers,
// certificate names, SNI -- must not inject CSV columns) lives in
// report::to_csv_row; the CLI row and the report pipeline consume the
// exact same report::QscanRowFeatures.
void print_row(const scanner::QscanResult& result) {
  std::printf("%s\n", report::to_csv_row(report::features_of(result)).c_str());
}

scanner::QscanOptions scan_options(const engine::ShardEnv& env,
                                   bool send_http, int retries,
                                   bool breaker) {
  scanner::QscanOptions options;
  options.send_http_head = send_http;
  options.seed = env.seed;
  options.metrics = env.metrics;
  options.trace_factory = env.trace_factory;
  options.retry.max_attempts = 1 + retries;
  options.breaker.enabled = breaker;
  if (breaker) {
    // Attribute each target to its AS via the shard's own internet
    // snapshot; unknown addresses land in AS 0.
    internet::Internet* internet = env.internet;
    options.asn_of = [internet](const netsim::IpAddress& addr) {
      const auto* host = internet->host_for(addr);
      return host ? host->profile().asn : 0u;
    };
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) try {
  cli::CampaignFlags flags;
  flags.seed = 0x5ca9;
  bool scan_all = false;
  bool send_http = true;
  std::string targets_file;
  bool breaker = false;

  for (int i = 1; i < argc; ++i) {
    if (cli::parse_campaign_flag(argc, argv, i, flags)) continue;
    std::string arg = argv[i];
    if (arg == "--all") {
      scan_all = true;
    } else if (arg == "--no-http") {
      send_http = false;
    } else if (arg == "--targets" && i + 1 < argc) {
      targets_file = argv[++i];
    } else if (arg == "--breaker") {
      breaker = true;
    } else {
      cli::print_usage(
          "qscanner_cli [--all | --targets FILE] [--no-http] [--breaker]");
      return 2;
    }
  }
  cli::resolve_campaign_flags(flags);
  if (!scan_all && targets_file.empty()) scan_all = true;

  const auto campaign_options =
      cli::campaign_options(flags, {.dns_corpus_scale = 0.01});
  engine::Campaign campaign(campaign_options);

  // Per-slice output slots: each body writes only to its own index;
  // the engine guarantees exclusive slots and a barrier. Sized with
  // slot_count once the target count is known (dynamic campaigns have
  // more slices than workers).
  std::vector<std::vector<scanner::QscanResult>> shard_rows;
  std::vector<size_t> shard_scanned;
  std::vector<uint64_t> shard_attempts;

  // In-slice report accumulation: each slice feeds its own slot from
  // the same results the CSV writer prints, and the slice-order fold
  // after run() is jobs-invariant (merge_from is associative and
  // commutative).
  const bool want_report = !flags.report_dir.empty();
  std::optional<engine::ShardFold<report::ReportAccumulator>> report_fold;
  auto size_slots = [&](size_t target_count) {
    size_t slots = campaign.slot_count(target_count);
    shard_rows.assign(slots, {});
    shard_scanned.assign(slots, 0);
    shard_attempts.assign(slots, 0);
    report_fold.emplace(slots,
                        [] { return report::ReportAccumulator("qscanner"); });
  };
  auto report_row = [&](engine::ShardEnv& env,
                        const scanner::QscanResult& result) {
    if (!want_report) return;
    const auto& registry = env.internet->population().as_registry();
    report_fold->slot(env.shard_index)
        .add_row(report::features_of(result),
                 registry.asn_for(result.target.address));
  };

  std::vector<scanner::QscanResult> rows;
  if (scan_all) {
    // The ZMap candidate space is the campaign's target list: each
    // shard sweeps its candidate slice, then runs the stateful
    // scanner over its own hits -- discovery and handshake stay in
    // the same shard world, exactly like the serial pipeline.
    netsim::EventLoop planning_loop;
    internet::Internet planning(campaign_options.snapshot, planning_loop);
    auto candidates = planning.zmap_candidates_v4();
    size_slots(candidates.size());

    campaign.run(candidates.size(), [&](engine::ShardEnv& env) {
      if (want_report)
        report_fold->slot(env.shard_index).attach_metrics(env.metrics);
      scanner::ZmapOptions zmap_options;
      zmap_options.seed = env.seed;
      zmap_options.metrics = env.metrics;
      scanner::ZmapQuicScanner zmap(env.internet->network(),
                                    std::move(zmap_options));
      auto hits = zmap.scan(std::span<const netsim::IpAddress>(
          candidates.data() + env.range.begin, env.range.size()));

      scanner::QScanner qscanner(
          env.internet->network(),
          scan_options(env, send_http, flags.retries, breaker));
      auto& rows_out = shard_rows[static_cast<size_t>(env.shard_index)];
      for (const auto& hit : hits) {
        scanner::QscanTarget target{hit.address, std::nullopt,
                                    hit.versions};
        if (!qscanner.compatible(target)) continue;
        rows_out.push_back(qscanner.scan_one(target));
        report_row(env, rows_out.back());
        ++shard_scanned[static_cast<size_t>(env.shard_index)];
      }
      shard_attempts[static_cast<size_t>(env.shard_index)] =
          qscanner.attempts();
    });
    // Per-shard rows follow ZMap's address-ordered hit list; hits
    // across shards are disjoint, so the address merge reproduces
    // the serial (globally address-sorted) row order for every K.
    rows = engine::merge_sorted_shards(
        std::move(shard_rows),
        [](const scanner::QscanResult& a, const scanner::QscanResult& b) {
          return a.target.address < b.target.address;
        });
  } else {
    std::ifstream in(targets_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", targets_file.c_str());
      return 2;
    }
    std::vector<scanner::QscanTarget> targets;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      size_t comma = line.find(',');
      auto addr = netsim::IpAddress::parse(
          comma == std::string::npos ? line : line.substr(0, comma));
      if (!addr) {
        std::fprintf(stderr, "skipping malformed target: %s\n",
                     line.c_str());
        continue;
      }
      scanner::QscanTarget target;
      target.address = *addr;
      if (comma != std::string::npos) target.sni = line.substr(comma + 1);
      targets.push_back(std::move(target));
    }
    size_slots(targets.size());

    campaign.run(targets.size(), [&](engine::ShardEnv& env) {
      if (want_report)
        report_fold->slot(env.shard_index).attach_metrics(env.metrics);
      scanner::QScanner qscanner(
          env.internet->network(),
          scan_options(env, send_http, flags.retries, breaker));
      auto& rows_out = shard_rows[static_cast<size_t>(env.shard_index)];
      for (size_t i = env.range.begin; i < env.range.end; ++i) {
        if (!qscanner.compatible(targets[i])) continue;
        rows_out.push_back(qscanner.scan_one(targets[i]));
        report_row(env, rows_out.back());
        ++shard_scanned[static_cast<size_t>(env.shard_index)];
      }
      shard_attempts[static_cast<size_t>(env.shard_index)] =
          qscanner.attempts();
    });
    // Contiguous shards preserve the target-file order on concat.
    rows = engine::concat_shards(std::move(shard_rows));
  }

  std::printf("%s\n", report::kQscanCsvHeader);
  for (const auto& row : rows) print_row(row);

  if (want_report)
    report::write_report_dir(flags.report_dir, report_fold->merged());

  size_t scanned = 0;
  uint64_t attempts = 0;
  for (size_t s = 0; s < shard_scanned.size(); ++s) {
    scanned += shard_scanned[s];
    attempts += shard_attempts[s];
  }
  std::fprintf(stderr, "# scanned %zu targets, %llu attempts\n", scanned,
               static_cast<unsigned long long>(attempts));
  cli::print_campaign_summary(flags, campaign);
  const auto& metrics = campaign.metrics();
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name =
        scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    const auto* counter = metrics.find_counter("qscan.outcome." + name);
    std::fprintf(stderr, "#   %-22s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(
                     counter ? counter->value() : 0));
  }

  cli::write_metrics_files(flags, campaign);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
