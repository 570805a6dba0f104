// campaign_bench: runs one workload of the campaign benchmark for a
// fixed wall budget and prints one JSON object on its last stdout line.
//
//   campaign_bench --workload sweep|sni|dns|hostile --seed N
//                  [--campaign-seed M] --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// --seed is the population seed; --campaign-seed (default: --seed) is
// the campaign seed the engine derives chunk seeds from, the second
// seed a held-out re-run varies. --trace 0 reports the end-to-end
// metrics from untraced campaigns; --trace 1 alternates untraced and
// traced campaigns, reports the per-layer metrics, writes the spans of
// the last traced campaign (plus set-up and crypto probes) to
// --trace-out as Chrome trace-event JSON and FILE.summary.json, and
// reports the traced-vs-untraced wall difference as tracing overhead.
// run.py builds this binary and wraps its output in the benchmark's
// result line.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "host.h"
#include "probes.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using bench::CampaignResult;

// Snapshot builds per run: one before the campaigns, the rest spread
// between them, so set-up time samples the same stretch of wall time
// as the campaigns do rather than one burst at start-up.
constexpr size_t kSetupBuilds = 7;
// Untraced runs measure at least 3 campaigns; traced runs at least 2
// untraced and 2 traced ones.
constexpr int kMinCampaigns = 3;
constexpr int kMinTracedCampaigns = 4;
constexpr size_t kProbeInputs = 64;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  std::optional<uint64_t> campaign_seed;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

uint64_t parse_u64(const std::string& flag, const std::string& text) {
  size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used, 0);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-')
    throw std::invalid_argument(flag + ": not a non-negative integer: " + text);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--campaign-seed") {
      args.campaign_seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = args.seconds >= 1;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace: expected 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!bench::parse_kind(args.workload))
    throw std::invalid_argument("--workload: expected sweep, sni, dns or "
                                "hostile");
  if (!have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument("--seed, --seconds (>= 1) and --trace are "
                                "required");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename F>
std::vector<double> each(const std::vector<CampaignResult>& runs, F f) {
  std::vector<double> out;
  for (const auto& run : runs) out.push_back(f(run));
  return out;
}

template <typename F>
double median_of(const std::vector<CampaignResult>& runs, F f) {
  return bench::median(each(runs, f));
}

double counter(const CampaignResult& run, const std::string& name) {
  const auto* c = run.metrics.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0.0;
}

double counter_prefix(const CampaignResult& run, const std::string& prefix) {
  return static_cast<double>(bench::counter_sum(run.metrics, prefix));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double body_ms(const CampaignResult& run) {
  double ns = 0;
  for (const auto& chunk : run.chunks)
    ns += static_cast<double>(chunk.body_end_ns - chunk.body_start_ns);
  return ns / 1e6;
}

// Metric slugs of the outcome classes (scanner::to_string names carry
// spaces and parentheses, which metric names may not).
const char* outcome_slug(size_t outcome) {
  static const char* const kSlugs[] = {
      "success",        "timeout", "crypto_error",  "version_mismatch",
      "other",          "rate_limited", "degraded", "protocol_error",
      "stalled",        "version_loop", "watchdog"};
  static_assert(std::size(kSlugs) == scanner::kQscanOutcomeCount);
  return kSlugs[outcome];
}

struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> items;
  void add(std::string name, double value, std::string unit) {
    items.emplace_back(std::move(name), value, std::move(unit));
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items.size(); ++i) {
      const auto& [name, value, unit] = items[i];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      if (i) out += ',';
      out += '"';
      out += name;
      out += "\":{\"value\":";
      out += buf;
      out += ",\"unit\":\"";
      out += unit;
      out += "\"}";
    }
    return out + "}";
  }
};

int run(const Args& args) {
  const auto kind = *bench::parse_kind(args.workload);
  const uint64_t campaign_seed = args.campaign_seed.value_or(args.seed);
  const int jobs = std::min(4, bench::usable_cpus());
  const std::string fingerprint = bench::fingerprint_json(jobs);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  // --- set-up: the immutable snapshot, built several times ---
  internet::PopulationParams params;
  params.seed = args.seed;
  params.dns_corpus_scale = 0.01;
  bench::SpanLog setup_spans;
  std::vector<double> setup_s;
  auto build_snapshot = [&] {
    uint64_t t0 = bench::now_ns();
    auto built = std::make_shared<const internet::Snapshot>(params, 18);
    uint64_t t1 = bench::now_ns();
    setup_spans.add({"internet.snapshot", t0, t1, -1, bench::kNoTarget, 0});
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    return built;
  };
  const auto snapshot = build_snapshot();
  const bench::Workload workload(kind, snapshot);

  // The jobs-1 campaign at the measured chunk size comes first: it is
  // the determinism reference the measured set must match, and it warms
  // the process up. It is not timed.
  const size_t chunk_size = workload.chunk_size(jobs);
  const CampaignResult serial =
      workload.run_campaign(campaign_seed, 1, chunk_size, false);
  uint64_t attempted = serial.targets;
  double failed = std::abs(static_cast<double>(serial.rows) -
                           static_cast<double>(serial.classified));

  // --- measured campaigns: closed loop until the wall budget is spent ---
  std::vector<CampaignResult> plain, traced;
  std::vector<std::string> digests;
  std::vector<std::map<std::string, bench::LayerTotals>> traced_by_name;
  bench::SpanLog last_trace;

  const uint64_t deadline =
      bench::now_ns() + static_cast<uint64_t>(args.seconds * 1e9);
  for (int i = 0;
       i < (args.trace ? kMinTracedCampaigns : kMinCampaigns) ||
       bench::now_ns() < deadline;
       ++i) {
    const bool with_spans = args.trace && i % 2 == 1;
    CampaignResult r =
        workload.run_campaign(campaign_seed, jobs, chunk_size, with_spans);
    digests.push_back(r.digest);
    attempted += r.targets;
    failed += std::abs(static_cast<double>(r.rows) -
                       static_cast<double>(r.classified));
    if (setup_s.size() < kSetupBuilds) build_snapshot();
    if (with_spans) {
      traced_by_name.push_back(bench::totals_by_name(r.spans.spans()));
      last_trace = std::move(r.spans);
      r.spans = {};
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
  }
  const double rss_mb = peak_rss_mb();
  while (setup_s.size() < kSetupBuilds) build_snapshot();

  // --- correctness: one digest per set, equal to the jobs-1 campaign ---
  const auto bad = bench::disagreeing_runs(digests);
  failed += static_cast<double>(bad.size() * workload.targets());
  size_t ref = 0;
  while (std::find(bad.begin(), bad.end(), ref) != bad.end()) ++ref;
  const std::string& reference = digests[ref];
  const bool serial_ok = serial.digest == reference;
  if (!serial_ok) failed += static_cast<double>(serial.targets);
  std::printf("digest %s jobs1 %s chunk_size %zu campaigns %zu\n",
              reference.c_str(), serial.digest.c_str(), chunk_size,
              digests.size());

  // --- attempt latency, pooled over the untraced campaigns ---
  std::vector<double> attempt_us;
  std::map<uint8_t, std::vector<double>> by_class;
  for (const auto& r : plain) {
    attempt_us.insert(attempt_us.end(), r.attempt_us.begin(),
                      r.attempt_us.end());
    for (size_t k = 0; k < r.attempt_us.size(); ++k)
      by_class[r.attempt_class[k]].push_back(r.attempt_us[k]);
  }
  const auto walls_ms = each(plain, [](const CampaignResult& r) {
    return static_cast<double>(r.wall_ns) / 1e6;
  });
  std::printf("campaign wall ms: n %zu min %.2f median %.2f max %.2f\n",
              walls_ms.size(), *std::min_element(walls_ms.begin(), walls_ms.end()),
              bench::median(walls_ms),
              *std::max_element(walls_ms.begin(), walls_ms.end()));
  std::printf("setup s:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  const bench::Tail p99 = bench::tail(attempt_us, 99.0);
  std::printf("attempt samples %zu, tail percentile p%g\n", p99.samples,
              p99.percentile);

  Metrics m;
  const CampaignResult& last = plain.back();
  if (!args.trace) {
    m.add("setup_s", bench::median(setup_s), "s");
    m.add("targets_per_s", median_of(plain, [](const CampaignResult& r) {
            return static_cast<double>(r.targets) /
                   (static_cast<double>(r.wall_ns) / 1e9);
          }), "1/s");
    m.add("handshakes_per_s", median_of(plain, [](const CampaignResult& r) {
            return static_cast<double>(r.attempts) /
                   (static_cast<double>(r.wall_ns) / 1e9);
          }), "1/s");
    m.add("attempt_mean_us", bench::mean(attempt_us), "us");
    m.add("attempt_p99_us", p99.value, "us");
    m.add("cpu_s", median_of(plain, [](const CampaignResult& r) {
            return static_cast<double>(r.cpu_ns) / 1e9;
          }), "s");
    m.add("peak_rss_mb", rss_mb, "MB");
  } else {
    // Probes run after the campaigns so they never share the CPU with a
    // measured campaign.
    bench::SpanLog probe_spans;
    const auto probes = bench::run_probes(
        workload.sample_dcids(kProbeInputs, campaign_seed), probe_spans);

    auto span_ms = [&](const char* name) {
      std::vector<double> v;
      for (const auto& totals : traced_by_name) {
        auto it = totals.find(name);
        v.push_back(it == totals.end()
                        ? 0.0
                        : static_cast<double>(it->second.total_ns) / 1e6);
      }
      return bench::median(v);
    };
    auto wall_s = [](const CampaignResult& r) {
      return static_cast<double>(r.wall_ns) / 1e9;
    };

    m.add("internet.snapshot_ms", bench::median(setup_s) * 1e3, "ms");
    m.add("internet.worlds", static_cast<double>(last.chunks.size()), "count");
    m.add("internet.world_build_ms", median_of(plain, [](const auto& r) {
            return static_cast<double>(r.busy_us) / 1e3 - body_ms(r);
          }), "ms");
    m.add("internet.world_build_share", median_of(plain, [](const auto& r) {
            double busy = static_cast<double>(r.busy_us) / 1e3;
            return ratio(busy - body_ms(r), busy);
          }), "ratio");

    std::vector<double> chunk_ms;
    for (const auto& r : plain) {
      auto starts = bench::derived_chunk_starts(r.chunks, r.run_start_ns);
      for (size_t c = 0; c < r.chunks.size(); ++c)
        chunk_ms.push_back(
            static_cast<double>(r.chunks[c].body_end_ns - starts[c]) / 1e6);
    }
    const bench::Tail chunk_tail = bench::tail(chunk_ms, 99.0);
    m.add("engine.chunks", static_cast<double>(last.chunks.size()), "count");
    m.add("engine.busy_ms", median_of(plain, [](const auto& r) {
            return static_cast<double>(r.busy_us) / 1e3;
          }), "ms");
    m.add("engine.steal_wait_ms", median_of(plain, [](const auto& r) {
            return static_cast<double>(r.steal_wait_us) / 1e3;
          }), "ms");
    m.add("engine.straggler_ratio",
          median_of(plain, [](const auto& r) { return r.straggler_ratio; }),
          "ratio");
    m.add("engine.chunk_p50_ms", bench::percentile(chunk_ms, 50.0), "ms");
    m.add("engine.chunk_p99_ms", chunk_tail.value, "ms");

    const double probes_sent = counter(last, "zmap.probes_sent");
    const double responses = counter(last, "zmap.responses");
    m.add("zmap.scan_ms", span_ms("zmap.scan"), "ms");
    m.add("zmap.probes", probes_sent, "count");
    m.add("zmap.responses", responses, "count");
    m.add("zmap.response_ratio", ratio(responses, probes_sent), "ratio");

    const double rows = counter_prefix(last, "qscan.outcome.");
    m.add("attempt_p50_us", bench::percentile(attempt_us, 50.0), "us");
    m.add("qscan.scan_ms", span_ms("qscan.scan_one"), "ms");
    m.add("qscan.attempts", counter(last, "qscan.attempts"), "count");
    m.add("qscan.retries", counter(last, "qscan.retries"), "count");
    m.add("qscan.success_ratio",
          ratio(counter(last, "qscan.outcome.Success"), rows), "ratio");
    for (size_t o = 0; o < scanner::kQscanOutcomeCount; ++o)
      m.add(std::string("qscan.outcome.") + outcome_slug(o),
            counter(last, "qscan.outcome." +
                              scanner::to_string(
                                  static_cast<scanner::QscanOutcome>(o))),
            "count");
    for (size_t o = 0; o < 4; ++o) {
      auto it = by_class.find(static_cast<uint8_t>(o));
      m.add(std::string("qscan.attempt_p50_us.") + outcome_slug(o),
            it == by_class.end() ? 0.0 : bench::percentile(it->second, 50.0),
            "us");
    }

    m.add("crypto.initial_keys_us", probes.initial_keys_us, "us");
    m.add("crypto.hkdf_expand_label_ns", probes.hkdf_expand_label_ns, "ns");
    m.add("crypto.hmac_sha256_ns", probes.hmac_sha256_ns, "ns");
    m.add("crypto.aead_seal_1200_ns", probes.aead_seal_1200_ns, "ns");
    m.add("quic.packet_roundtrip_ns", probes.packet_roundtrip_ns, "ns");
    m.add("hotpath.alloc_bytes", counter(last, "hotpath.alloc_bytes"), "bytes");
    m.add("hotpath.aead_ctx_reuse", counter(last, "hotpath.aead_ctx_reuse"),
          "count");
    const auto* packets = last.metrics.find_histogram("qscan.packets_per_attempt");
    m.add("qscan.packets_per_attempt",
          packets ? ratio(static_cast<double>(packets->sum()),
                          static_cast<double>(packets->count()))
                  : 0.0,
          "count");
    m.add("net.bytes_sent", counter(last, "net.bytes_sent"), "bytes");

    m.add("net.datagrams_sent", counter(last, "net.datagrams_sent"), "count");
    m.add("net.delivered", counter(last, "net.delivered"), "count");
    m.add("net.dropped", counter_prefix(last, "net.dropped_"), "count");
    m.add("loop.events_fired", counter(last, "loop.events_fired"), "count");
    m.add("loop.events_cancelled", counter(last, "loop.events_cancelled"),
          "count");

    m.add("dns.scan_ms", span_ms("dns.scan_list"), "ms");
    m.add("dns.queries", counter(last, "dns.queries_sent"), "count");
    m.add("dns.https_rr_ratio",
          ratio(counter(last, "dns.with_https_rr"),
                counter(last, "dns.domains_resolved")),
          "ratio");

    m.add("report.add_ms", span_ms("report.add"), "ms");
    m.add("report.merge_ms", span_ms("report.merge"), "ms");
    m.add("report.render_ms", span_ms("report.render"), "ms");
    m.add("report.rows",
          counter(last, "report.rows") + counter(last, "report.dns_records"),
          "count");

    m.add("telemetry.trace_events", static_cast<double>(last.trace_events),
          "count");
    m.add("telemetry.trace_bytes", static_cast<double>(last.trace_bytes),
          "bytes");
    m.add("telemetry.trace_ms", median_of(traced, [](const auto& r) {
            return static_cast<double>(r.sink_ns) / 1e6;
          }), "ms");

    const double overhead =
        median_of(traced, wall_s) / median_of(plain, wall_s) - 1.0;
    m.add("bench.tracing_overhead", overhead, "ratio");
    m.add("failed_ratio", ratio(failed, static_cast<double>(attempted)),
          "ratio");

    // Trace file: set-up, the last traced campaign, then the probes.
    bench::SpanLog all = setup_spans;
    all.append(last_trace, -1);
    all.append(probe_spans, -1);
    std::printf("self time by layer (ms):");
    for (const auto& [layer, t] : bench::totals_by_layer(all.spans()))
      std::printf(" %s=%.3f", layer.c_str(),
                  static_cast<double>(t.self_ns) / 1e6);
    std::printf("\ntracing overhead %.4f\n", overhead);
    if (!args.trace_out.empty()) {
      std::ofstream trace(args.trace_out);
      bench::write_chrome_trace(trace, all.spans());
      std::ofstream summary(args.trace_out + ".summary.json");
      summary << "{\"tracing_overhead\":" << overhead << ",\"layers\":{";
      bool first = true;
      for (const auto& [layer, t] : bench::totals_by_layer(all.spans())) {
        summary << (first ? "" : ",") << '"' << layer << "\":{\"spans\":"
                << t.count << ",\"total_ms\":" << t.total_ns / 1e6
                << ",\"self_ms\":" << t.self_ns / 1e6 << '}';
        first = false;
      }
      summary << "}}\n";
      if (!trace || !summary)
        throw std::runtime_error("cannot write " + args.trace_out);
    }
  }

  const bool correct = failed == 0 && serial_ok;
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"campaign_seed\":%" PRIu64
      ",\"jobs\":%d,\"chunk_size\":%zu,\"targets\":%zu,\"digest\":\"%s\","
      "\"jobs1_digest\":\"%s\",\"fingerprint\":%s,\"correct\":%s,"
      "\"attempted\":%" PRIu64 ",\"failed\":%.0f,\"metrics\":%s}\n",
      args.workload.c_str(), args.seed, campaign_seed, jobs, chunk_size,
      workload.targets(), reference.c_str(), serial.digest.c_str(),
      fingerprint.c_str(), correct ? "true" : "false", attempted, failed,
      m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
